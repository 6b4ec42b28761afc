#!/usr/bin/env python3
"""Benchmark-regression gate for the CI bench job.

Compares a Google-Benchmark JSON run against the committed seed baseline
(results/BENCH_simulator_seed.json) on items_per_second, grouped by
benchmark *family* (the name up to the first '/'), and fails when any
family's geometric-mean throughput ratio drops below 1 - tolerance.

Per-benchmark noise on shared CI runners is real; the family geomean
smooths it while still catching a genuine slowdown in one code path.
Benchmarks present on only one side are reported but never gate.

Usage:
  tools/check_bench_regression.py --current results/BENCH_simulator.json \
      [--baseline results/BENCH_simulator_seed.json] [--tolerance 0.25] \
      [--summary-out delta.md]

  tools/check_bench_regression.py --self-test [--tolerance 0.25]
      Synthesizes a regressed run from the baseline itself (every family
      slowed past the tolerance) and asserts the gate trips, then a
      same-speed run and asserts it passes.  CI runs this every build so
      the gate is continuously verified against an injected regression.

The gate also covers the selection service's latency SLOs when a loadgen
sweep is present (tools/gpusel_loadgen --out results/BENCH_server.json):
per operating point, the current p99 latency may not regress past
--slo-tolerance against results/BENCH_server_seed.json, and the point
tagged slo_nominal=1 must shed nothing -- a nonzero shed rate at the
nominal load means admission control is rejecting work the service is
provisioned for.  Missing server JSONs skip the step (older branches).

Exit codes: 0 pass, 1 regression detected, 2 usage/IO error.

Refreshing the baseline: rerun bench/run_benches.sh on the reference host
and copy results/BENCH_simulator.json over results/BENCH_simulator_seed.json
(see docs/architecture.md, "Benchmark-regression gate").
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

PASS, REGRESSION, USAGE = 0, 1, 2


def load_benchmarks(path):
    """Returns {name: items_per_second} for every timed benchmark."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips is not None and ips > 0:
            out[b["name"]] = float(ips)
    return out


def family_of(name):
    return name.split("/", 1)[0]


# Descent tallies exported by bench_simulator_overhead
# (RobustnessCounters::backend_*, see docs/planner.md): backend_sample
# counts selections that ran sampled levels, backend_bitonic those that
# sorted their input outright in the base case.  The coverage step asserts
# the bench sweep ran each descent at least once.
BACKEND_COUNTERS = ("backend_sample", "backend_bitonic")


def planner_coverage(doc):
    """Returns (checked, missing) for the planner-coverage step.

    Sums the backend_* counters across the run's timed benchmarks.
    checked is False when no benchmark reports them (older JSONs, filtered
    runs) -- the step is skipped rather than failed; missing lists the
    backends the sweep never selected.
    """
    sums = {c: 0.0 for c in BACKEND_COUNTERS}
    seen = False
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        for c in BACKEND_COUNTERS:
            if c in b:
                seen = True
                sums[c] += float(b[c])
    if not seen:
        return False, []
    return True, [c for c, v in sums.items() if v <= 0]


# Sharded-selection coverage: the bench sweep must include the
# BM_ShardedSelect family and its modeled interconnect traffic counter
# (bench_simulator_overhead exports link_bytes_per_iter per run).  Unlike
# the planner step this one FAILS when absent -- the sharded lane only
# means something if the benchmark actually ran and moved bytes over the
# modeled links.
SHARD_FAMILY = "BM_ShardedSelect"
LINK_COUNTER_SUBSTR = "link_bytes"


def shard_coverage(doc):
    """Returns the list of problems for the shard-coverage step.

    Empty list == pass.  Problems: the BM_ShardedSelect family is missing
    from the run, or no benchmark in the family carries a positive
    link-byte counter (any counter whose name contains 'link_bytes').
    """
    family_runs = [b for b in doc.get("benchmarks", [])
                   if b.get("run_type") != "aggregate"
                   and family_of(b.get("name", "")) == SHARD_FAMILY]
    if not family_runs:
        return [f"benchmark family {SHARD_FAMILY} absent from the run"]
    link_bytes = 0.0
    seen_counter = False
    for b in family_runs:
        for key, val in b.items():
            if LINK_COUNTER_SUBSTR in key:
                seen_counter = True
                try:
                    link_bytes += float(val)
                except (TypeError, ValueError):
                    pass
    if not seen_counter:
        return [f"no link-byte counter ('{LINK_COUNTER_SUBSTR}') on any "
                f"{SHARD_FAMILY} run"]
    if link_bytes <= 0:
        return [f"{SHARD_FAMILY} ran but reported zero link bytes -- "
                "multi-device transfers never happened"]
    return []


def load_server_points(path):
    """Returns {name: point} from a gpusel_loadgen sweep JSON."""
    with open(path) as f:
        doc = json.load(f)
    return {p["name"]: p for p in doc.get("server_points", [])}


def slo_gate(baseline_points, current_points, slo_tolerance):
    """Latency-SLO step over a loadgen sweep.

    Returns (lines, failures): a markdown table of the sweep and the list
    of SLO violations.  Two checks per operating point:
      * p99 latency may not exceed baseline * (1 + slo_tolerance) for
        points present in both sweeps (baseline_points may be empty);
      * the slo_nominal point must have a zero shed rate -- shedding at
        the nominal load is an admission-control regression, not noise.
    """
    lines = [
        f"## Service SLO gate (p99 tolerance: +{slo_tolerance:.0%} vs seed)",
        "",
        "| point | p99 | vs seed | shed rate | gate |",
        "|---|---|---|---|---|",
    ]
    failures = []
    for name, cur in sorted(current_points.items(),
                            key=lambda kv: kv[1].get("rate_rps", 0)):
        base = baseline_points.get(name)
        point_failures = []
        ratio = None
        if base and base.get("p99_ns"):
            ratio = cur.get("p99_ns", 0.0) / base["p99_ns"]
            if ratio > 1.0 + slo_tolerance:
                point_failures.append(f"{name}: p99 {ratio:.2f}x seed")
        shed_rate = cur.get("shed_rate", 0.0)
        if cur.get("slo_nominal") and shed_rate > 0:
            point_failures.append(
                f"{name}: nonzero shed rate at nominal load ({shed_rate:.1%})")
        failures.extend(point_failures)
        mark = "❌ " + "; ".join(point_failures) if point_failures else "✅"
        vs = f"{ratio:.3f}x" if ratio is not None else "—"
        lines.append(f"| {name} | {cur.get('p99_ns', 0.0) / 1e6:.3f} ms | {vs} "
                     f"| {shed_rate:.1%} | {mark} |")
    lines.append("")
    return lines, failures


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare(baseline, current, tolerance):
    """Returns (families, rows, failed_families).

    families: {family: geomean ratio} over benchmarks present in both runs.
    rows: per-benchmark (name, base_ips, cur_ips, ratio-or-None) for the
    markdown table, in baseline order then current-only extras.
    """
    rows = []
    by_family = {}
    for name, base_ips in baseline.items():
        cur_ips = current.get(name)
        ratio = cur_ips / base_ips if cur_ips else None
        rows.append((name, base_ips, cur_ips, ratio))
        if ratio is not None:
            by_family.setdefault(family_of(name), []).append(ratio)
    for name, cur_ips in current.items():
        if name not in baseline:
            rows.append((name, None, cur_ips, None))

    families = {fam: geomean(ratios) for fam, ratios in sorted(by_family.items())}
    failed = [fam for fam, r in families.items() if r < 1.0 - tolerance]
    return families, rows, failed


def fmt_ips(ips):
    return f"{ips / 1e6:.1f} M/s" if ips is not None else "—"


def markdown_report(families, rows, failed, tolerance):
    lines = [
        f"## Benchmark regression gate (tolerance: -{tolerance:.0%} on family geomean)",
        "",
        "| family | geomean vs seed | gate |",
        "|---|---|---|",
    ]
    for fam, ratio in families.items():
        mark = "❌ regression" if fam in failed else "✅"
        lines.append(f"| {fam} | {ratio - 1.0:+.1%} ({ratio:.3f}x) | {mark} |")
    lines += [
        "",
        "<details><summary>Per-benchmark deltas</summary>",
        "",
        "| benchmark | seed | current | ratio |",
        "|---|---|---|---|",
    ]
    for name, base_ips, cur_ips, ratio in rows:
        if ratio is not None:
            delta = f"{ratio:.3f}x"
        elif base_ips is None:
            delta = "new"
        else:
            delta = "missing"
        lines.append(f"| {name} | {fmt_ips(base_ips)} | {fmt_ips(cur_ips)} | {delta} |")
    lines += ["", "</details>", ""]
    return "\n".join(lines)


def run_gate(baseline_path, current_path, tolerance, summary_out,
             server_baseline_path=None, server_current_path=None,
             slo_tolerance=0.25):
    try:
        baseline = load_benchmarks(baseline_path)
        current = load_benchmarks(current_path)
        with open(current_path) as f:
            current_doc = json.load(f)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    if not baseline:
        print(f"error: no timed benchmarks in baseline {baseline_path}", file=sys.stderr)
        return USAGE

    families, rows, failed = compare(baseline, current, tolerance)
    report = markdown_report(families, rows, failed, tolerance)
    print(report)

    sinks = [p for p in (summary_out, os.environ.get("GITHUB_STEP_SUMMARY")) if p]
    for path in sinks:
        with open(path, "a") as f:
            f.write(report + "\n")

    checked, missing = planner_coverage(current_doc)
    if checked and missing:
        print("FAIL: planner coverage: backends never selected by the sweep: "
              f"{', '.join(missing)}", file=sys.stderr)
    elif checked:
        print("planner coverage OK: every selection backend exercised")
    else:
        print("planner coverage skipped: no backend_* counters in this run")

    shard_problems = shard_coverage(current_doc)
    if shard_problems:
        print(f"FAIL: shard coverage: {'; '.join(shard_problems)}",
              file=sys.stderr)
    else:
        print(f"shard coverage OK: {SHARD_FAMILY} ran with nonzero link bytes")

    slo_failures = []
    if server_current_path and os.path.exists(server_current_path):
        try:
            current_points = load_server_points(server_current_path)
            baseline_points = (load_server_points(server_baseline_path)
                               if server_baseline_path and os.path.exists(server_baseline_path)
                               else {})
        except (OSError, json.JSONDecodeError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE
        slo_lines, slo_failures = slo_gate(baseline_points, current_points, slo_tolerance)
        slo_report = "\n".join(slo_lines)
        print(slo_report)
        for path in sinks:
            with open(path, "a") as f:
                f.write(slo_report + "\n")
        if slo_failures:
            print(f"FAIL: service SLO violations: {'; '.join(slo_failures)}",
                  file=sys.stderr)
        else:
            print(f"service SLO OK: {len(current_points)} operating points checked")
    else:
        print("service SLO skipped: no loadgen sweep JSON")

    if failed:
        print(f"FAIL: families regressed past -{tolerance:.0%}: {', '.join(failed)}",
              file=sys.stderr)
        return REGRESSION
    if (checked and missing) or shard_problems or slo_failures:
        return REGRESSION
    print(f"OK: {len(families)} families within tolerance "
          f"({len([r for r in rows if r[3] is not None])} benchmarks compared)")
    return PASS


def self_test(baseline_path, tolerance):
    """Verifies the gate trips on an injected regression and stays quiet
    on an unchanged run, without touching the real results."""
    with open(baseline_path) as f:
        doc = json.load(f)

    def synth(scale):
        d = copy.deepcopy(doc)
        for b in d.get("benchmarks", []):
            if "items_per_second" in b:
                b["items_per_second"] *= scale
        return load_benchmarks_from_doc(d)

    def load_benchmarks_from_doc(d):
        return {b["name"]: float(b["items_per_second"])
                for b in d.get("benchmarks", [])
                if b.get("run_type") != "aggregate" and b.get("items_per_second")}

    baseline = load_benchmarks_from_doc(doc)
    # Injected regression: every family slowed to just past the tolerance.
    regressed = synth(1.0 - tolerance - 0.05)
    _, _, failed = compare(baseline, regressed, tolerance)
    if len(failed) != len({family_of(n) for n in baseline}):
        print("self-test FAIL: injected regression did not trip the gate", file=sys.stderr)
        return REGRESSION
    # Unchanged run: must pass.
    _, _, failed = compare(baseline, synth(1.0), tolerance)
    if failed:
        print("self-test FAIL: identical run tripped the gate", file=sys.stderr)
        return REGRESSION
    # Borderline-but-inside run: must pass.
    _, _, failed = compare(baseline, synth(1.0 - tolerance + 0.05), tolerance)
    if failed:
        print("self-test FAIL: within-tolerance run tripped the gate", file=sys.stderr)
        return REGRESSION
    # Planner-coverage step, when the baseline carries backend tallies:
    # the full sweep must cover every backend, and zeroing one backend's
    # tallies must trip the step.
    checked, missing = planner_coverage(doc)
    if checked:
        if missing:
            print("self-test FAIL: baseline sweep does not cover every backend",
                  file=sys.stderr)
            return REGRESSION
        starved = copy.deepcopy(doc)
        for b in starved.get("benchmarks", []):
            if "backend_bitonic" in b:
                b["backend_bitonic"] = 0
        checked, missing = planner_coverage(starved)
        if not (checked and missing == ["backend_bitonic"]):
            print("self-test FAIL: zeroed backend tally did not trip coverage",
                  file=sys.stderr)
            return REGRESSION
    # Shard-coverage step: the baseline must carry the sharded family with
    # traffic on the modeled links, dropping the family must trip, and
    # stripping the link-byte counters must trip.
    if shard_coverage(doc):
        print("self-test FAIL: baseline sweep lacks sharded-selection coverage",
              file=sys.stderr)
        return REGRESSION
    no_family = copy.deepcopy(doc)
    no_family["benchmarks"] = [b for b in no_family.get("benchmarks", [])
                               if family_of(b.get("name", "")) != SHARD_FAMILY]
    if not shard_coverage(no_family):
        print("self-test FAIL: missing sharded family did not trip coverage",
              file=sys.stderr)
        return REGRESSION
    no_links = copy.deepcopy(doc)
    for b in no_links.get("benchmarks", []):
        for key in [k for k in b if LINK_COUNTER_SUBSTR in k]:
            del b[key]
    if not shard_coverage(no_links):
        print("self-test FAIL: stripped link-byte counter did not trip coverage",
              file=sys.stderr)
        return REGRESSION
    # Latency-SLO step, against a synthetic sweep (no files needed): an
    # identical sweep passes, a p99 inflation past the tolerance trips,
    # shedding at the nominal point trips, shedding under overload at a
    # non-nominal point is expected behaviour and must NOT trip.
    slo_tolerance = 0.25
    base_sweep = {
        "SRV_load/500": {"name": "SRV_load/500", "rate_rps": 500,
                         "p99_ns": 1.0e6, "shed_rate": 0.0, "slo_nominal": 1},
        "SRV_load/8000": {"name": "SRV_load/8000", "rate_rps": 8000,
                          "p99_ns": 4.0e6, "shed_rate": 0.3, "slo_nominal": 0},
    }
    _, failures = slo_gate(base_sweep, copy.deepcopy(base_sweep), slo_tolerance)
    if failures:
        print("self-test FAIL: identical sweep tripped the SLO gate", file=sys.stderr)
        return REGRESSION
    inflated = copy.deepcopy(base_sweep)
    inflated["SRV_load/500"]["p99_ns"] *= 1.0 + slo_tolerance + 0.05
    _, failures = slo_gate(base_sweep, inflated, slo_tolerance)
    if len(failures) != 1 or "p99" not in failures[0]:
        print("self-test FAIL: inflated p99 did not trip the SLO gate", file=sys.stderr)
        return REGRESSION
    shedding = copy.deepcopy(base_sweep)
    shedding["SRV_load/500"]["shed_rate"] = 0.02
    _, failures = slo_gate(base_sweep, shedding, slo_tolerance)
    if len(failures) != 1 or "shed" not in failures[0]:
        print("self-test FAIL: nominal shed did not trip the SLO gate", file=sys.stderr)
        return REGRESSION
    print(f"self-test OK: gate trips at -{tolerance:.0%} and passes inside it; "
          "shard coverage trips on a missing family or link counter; "
          "SLO gate trips on p99 inflation and nominal shed")
    return PASS


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline",
                    default=os.path.join(repo_root, "results", "BENCH_simulator_seed.json"))
    ap.add_argument("--current",
                    default=os.path.join(repo_root, "results", "BENCH_simulator.json"))
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop in family geomean (default 0.25)")
    ap.add_argument("--summary-out", default=None,
                    help="also append the markdown delta table to this file")
    ap.add_argument("--server-baseline",
                    default=os.path.join(repo_root, "results", "BENCH_server_seed.json"),
                    help="seed loadgen sweep for the SLO gate")
    ap.add_argument("--server-current",
                    default=os.path.join(repo_root, "results", "BENCH_server.json"),
                    help="current loadgen sweep; missing file skips the SLO gate")
    ap.add_argument("--slo-tolerance", type=float, default=0.25,
                    help="allowed fractional p99 increase per operating point "
                         "(default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate against a synthesized regression and exit")
    args = ap.parse_args(argv)

    if not 0.0 < args.tolerance < 1.0:
        print("error: --tolerance must be in (0, 1)", file=sys.stderr)
        return USAGE
    if not 0.0 < args.slo_tolerance < 1.0:
        print("error: --slo-tolerance must be in (0, 1)", file=sys.stderr)
        return USAGE
    if args.self_test:
        return self_test(args.baseline, args.tolerance)
    return run_gate(args.baseline, args.current, args.tolerance, args.summary_out,
                    args.server_baseline, args.server_current, args.slo_tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
