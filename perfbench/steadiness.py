#!/usr/bin/env python3
"""Steadiness evidence: runs each workload of BENCHMARK.json once per
seed 1-10 and reports, for every end-to-end metric, the median, the
quartiles and the spread (quartile distance / median) against the
metric's bound.

    python3 perfbench/steadiness.py [--out perfbench/results/steadiness]
        [--baseline perfbench/results/steadiness.json]

Writes <out>.json (every run's metrics) and <out>.md (the table). With
--baseline, the table also gives each median's change against that
earlier set and flags a change for the worse beyond the bound. Run from
the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" %
                 (workload, seed, proc.returncode, proc.stdout[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: incorrect answers\n%s" %
                 (workload, seed, proc.stdout[-2000:]))
    return result, elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "results", "steadiness"))
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["workloads"]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    lines = ["# Steadiness: %d runs per workload, seeds %d-%d, %d s each" %
             (len(SEEDS), SEEDS[0], SEEDS[-1], bench["run_seconds"]), "",
             "spread = (q3 - q1) / median over the runs (Python "
             "`statistics.quantiles(n=4)`); `ok` when below a third of the bound.", ""]
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            result, elapsed = run_once(workload, seed, bench["run_seconds"])
            runs.append({"seed": seed, "elapsed_s": round(elapsed, 2),
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print("%s seed %d: %.1f s" % (workload, seed, elapsed), file=sys.stderr)
        table = {}
        base = baseline.get(workload, {}).get("summary", {})
        lines += ["## %s" % workload, "",
                  "| metric | median | q1 | q3 | spread | bound | spread/bound |" +
                  (" median vs baseline |" if base else ""),
                  "|---|---|---|---|---|---|---|" + ("---|" if base else "")]
        for name, spec in bounds.items():
            s = summarize([r["metrics"][name] for r in runs])
            s["bound"] = spec["bound"]
            table[name] = s
            verdict = ("ok" if s["spread"] < spec["bound"] / 3 else
                       "within bound" if s["spread"] <= spec["bound"] else "UNSTEADY")
            row = "| %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f %s |" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], spec["bound"],
                s["spread"] / spec["bound"], verdict)
            if base and name in base and base[name]["median"]:
                change = s["median"] / base[name]["median"] - 1
                worse = change if spec["better"] == "lower" else -change
                row += " %+.4f %s |" % (change, "WORSE" if worse > spec["bound"] else "ok")
            lines.append(row)
        lines.append("")
        report["workloads"][workload] = {"runs": runs, "summary": table}

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out + ".json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    with open(args.out + ".md", "w") as f:
        f.write("\n".join(lines))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
