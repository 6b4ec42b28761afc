#!/usr/bin/env python3
"""Exact gate on the bench suite's simulated ledger.

The simulated clock is deterministic, so every simulated metric of the
five bench/suite workloads at one seed is a fixed number.
results/LEDGER_seed1.json pins them:

  * from an untraced run (--trace 0): the end-to-end sim_gelems_per_s,
    sim_us_p50 and sim_us_p90;
  * from a traced run (--trace 1): every per-layer row except the host
    clock's (host.*, setup_s, trace.*, the *_host_* timers and
    core.planner.probe_host_us).

Usage:
  GPUSEL_WORKERS=0 bench/suite/run.sh --seed 1 --seconds 1 --trace 0 --out-dir DIR
  GPUSEL_WORKERS=0 bench/suite/run.sh --seed 1 --seconds 1 --trace 1 --out-dir DIR
  tools/check_ledger.py DIR             compare every run in DIR to the ledger
  tools/check_ledger.py --write DIR     regenerate the ledger from DIR
  tools/check_ledger.py --self-test     assert the gate trips

A row matches when it agrees to 1e-9 relative: that absorbs libm
differences between hosts, while one kernel launch more or less moves a
row by far more.  Each mismatch prints as `workload row: ledger → run`;
any mismatch, missing workload or missing row exits 1.  A change that
moves a row regenerates the ledger and lists old → new in CHANGES.md.
GPUSEL_WORKERS=0 pins the inline block scheduler, so the ledger is
recorded the way the golden suites run by default; every simulated row
also reads the same under GPUSEL_WORKERS=3.
"""

import argparse
import glob
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_LEDGER = os.path.join(HERE, "..", "results", "LEDGER_seed1.json")
WORKLOADS = ["paper_4m", "approx_4m", "topk_skewed_1m", "service_64k", "sharded_512k"]
SEED = 1
END_TO_END = ("sim_gelems_per_s", "sim_us_p50", "sim_us_p90")
RTOL = 1e-9


def host_clock(name):
    """Rows measured on the host clock, which no ledger can pin."""
    return (name.startswith(("host", "trace.")) or name == "setup_s"
            or "_host_" in name or name == "core.planner.probe_host_us")


def ledger_rows(trace, metrics):
    """The rows of one run the ledger pins."""
    if trace == 0:
        return {k: metrics[k] for k in END_TO_END if k in metrics}
    return {k: v for k, v in metrics.items() if not host_clock(k)}


def load_run(path):
    """One run.sh output: its last line is the result JSON."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    doc = json.loads(lines[-1])
    return {k: m["value"] for k, m in doc["metrics"].items()}


def runs_in(run_dir):
    """{workload: [rows of each run]}, both trace modes of a run merged."""
    found = {}
    for w in WORKLOADS:
        per_trace = []
        for trace in (0, 1):
            paths = sorted(glob.glob(os.path.join(run_dir, f"{w}.s{SEED}.t{trace}.*.json")))
            per_trace.append([ledger_rows(trace, load_run(p)) for p in paths])
        if per_trace[0] and per_trace[1]:
            # Every untraced run pairs with every traced one.
            found[w] = [{**t0, **t1} for t0 in per_trace[0] for t1 in per_trace[1]]
    return found


def agrees(a, b):
    if a == b:
        return True
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def compare(ledger, run_dir):
    """Mismatch lines, one per row that differs or is missing."""
    runs = runs_in(run_dir)
    out = []
    for w, rows in ledger["rows"].items():
        if w not in runs:
            out.append(f"{w}: ledger → missing workload (need both --trace 0 and --trace 1)")
            continue
        for got in runs[w]:
            for row in sorted(set(rows) | set(got)):
                want = rows.get(row, "absent")
                have = got.get(row, "missing")
                if not agrees(want, have):
                    out.append(f"{w} {row}: {want} → {have}")
    return out


def write(run_dir, path):
    runs = runs_in(run_dir)
    missing = [w for w in WORKLOADS if w not in runs]
    if missing:
        sys.exit(f"check_ledger: {run_dir} lacks {', '.join(missing)}")
    rows = {}
    for w in WORKLOADS:
        first = runs[w][0]
        for other in runs[w][1:]:
            if any(not agrees(first.get(k), other.get(k)) for k in set(first) | set(other)):
                sys.exit(f"check_ledger: the runs of {w} in {run_dir} disagree")
        rows[w] = dict(sorted(first.items()))
    doc = {
        "generated_by": "GPUSEL_WORKERS=0 bench/suite/run.sh --seed 1 --seconds 1 "
                        "--trace {0,1} --out-dir DIR; tools/check_ledger.py --write DIR",
        "seed": SEED,
        "rtol": RTOL,
        "rows": rows,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {sum(len(r) for r in rows.values())} rows of {len(rows)} workloads to {path}")


def fake_run_dir(ledger, d, skip=None, perturb=None):
    """Writes run.sh outputs that reproduce `ledger` into d."""
    for w, rows in ledger["rows"].items():
        if w == skip:
            continue
        for trace in (0, 1):
            metrics = {k: {"value": v} for k, v in rows.items()
                       if (k in END_TO_END) == (trace == 0)}
            metrics["host.ns_per_elem"] = {"value": 1.0}  # never gated
            if perturb and perturb[0] == w and perturb[1] in metrics:
                metrics[perturb[1]]["value"] *= 1 + 1e-6
            with open(os.path.join(d, f"{w}.s{SEED}.t{trace}.0.json"), "w") as f:
                f.write("== build output\n" + json.dumps({"metrics": metrics}) + "\n")


def self_test(ledger_path):
    with open(ledger_path) as f:
        ledger = json.load(f)
    perturb = (WORKLOADS[0], "sim_gelems_per_s")
    cases = [("identical run", {}, 0), ("perturbed row", {"perturb": perturb}, 1),
             ("missing workload", {"skip": WORKLOADS[-1]}, 1)]
    ok = True
    for name, kw, want in cases:
        with tempfile.TemporaryDirectory() as d:
            fake_run_dir(ledger, d, **kw)
            got = compare(ledger, d)
        tripped = 1 if got else 0
        print(f"self-test {name}: {'trips' if tripped else 'passes'}"
              f" ({len(got)} mismatch{'es' if len(got) != 1 else ''})")
        ok &= tripped == want
    if not ok:
        print("FAIL: the ledger gate does not trip as it must")
        return 1
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run_dir", nargs="?", help="a bench/suite/run.sh --out-dir directory")
    ap.add_argument("--ledger", default=DEFAULT_LEDGER)
    ap.add_argument("--write", action="store_true", help="regenerate the ledger from run_dir")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args.ledger)
    if not args.run_dir:
        ap.error("run_dir is required")
    if args.write:
        write(args.run_dir, args.ledger)
        return 0
    with open(args.ledger) as f:
        ledger = json.load(f)
    mismatches = compare(ledger, args.run_dir)
    for m in mismatches:
        print(m)
    if mismatches:
        print(f"FAIL: {len(mismatches)} ledger row(s) differ; re-pin with --write and list "
              "old → new in CHANGES.md")
        return 1
    print(f"ledger ok: {sum(len(r) for r in ledger['rows'].values())} rows match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
