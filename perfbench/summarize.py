"""Medians and quartiles of saved benchmark runs, and parent/change comparison.

    python3 perfbench/summarize.py RUNS_DIR                 # one side
    python3 perfbench/summarize.py PARENT_DIR CHANGE_DIR    # compare
    python3 perfbench/summarize.py RUNS_DIR --json OUT      # write a baseline

A runs directory holds the standard output of ``run.py`` runs, one file per
run.  Runs are grouped by the workload named in their provenance line;
in a comparison they are paired by seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{workload[ traced]: {seed: (provenance, result)}} for every complete run."""
    runs = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(errors="replace").splitlines()
        prov = next((json.loads(ln[len("provenance "):]) for ln in lines
                     if ln.startswith("provenance ")), None)
        if prov is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        key = prov["workload"] + (" traced" if prov["trace"] else "")
        runs[key][prov["seed"]] = (prov, result)
    return runs


def spread(values):
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def _metrics(side: dict):
    out = defaultdict(list)
    for _, result in side.values():
        for name, m in result["metrics"].items():
            if m["value"] is not None:
                out[name].append(m["value"])
    return out


def summary(runs: dict) -> dict:
    table = {}
    for workload, side in sorted(runs.items()):
        failed = sum(r["failed"] for _, r in side.values())
        attempted = sum(r["attempted"] for _, r in side.values())
        table[workload] = {
            "runs": len(side), "seeds": sorted(side),
            "all_correct": all(r["correct"] for _, r in side.values()),
            "failed": failed, "attempted": attempted,
            "metrics": {name: dict(zip(("median", "q1", "q3", "spread"), spread(v)))
                        for name, v in sorted(_metrics(side).items())},
        }
    return table


def compare(parent: dict, change: dict, bounds: dict):
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        print(f"== {workload}: {len(seeds)} seed pairs")
        p_all, c_all = _metrics(parent[workload]), _metrics(change[workload])
        for name in sorted(set(p_all) & set(c_all)):
            better, bound = bounds.get(name, ("lower", None))
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(1 for s in seeds
                       if sign * (change[workload][s][1]["metrics"][name]["value"]
                                  - parent[workload][s][1]["metrics"][name]["value"]) < 0)
            pm, _, _, ps = spread(p_all[name])
            cm, _, _, _ = spread(c_all[name])
            worse = sign * (cm - pm) / pm if pm else 0.0
            verdict = ""
            if bound is not None:
                if worse > bound:
                    verdict = "REGRESSION"
                elif ps > bound:
                    verdict = "unresolved (parent spread above bound)"
            print(f"  {name:<34} parent {pm:<12.6g} change {cm:<12.6g} "
                  f"worse by {100 * worse:+.1f}%  change wins {wins}/{len(seeds)}  "
                  f"parent spread {100 * ps:.1f}%  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dirs", nargs="+", type=Path)
    p.add_argument("--json", type=Path, help="write the one-side summary here")
    args = p.parse_args(argv)
    sides = [load(d) for d in args.dirs]
    if len(sides) == 2:
        spec = json.loads(BENCHMARK.read_text())
        bounds = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"] + spec["per_layer"]}
        compare(*sides, bounds)
        return 0
    table = summary(sides[0])
    provenance = next(iter(next(iter(sides[0].values())).values()))[0]
    baseline = {"machine": {k: provenance[k] for k in
                            ("nproc", "cpu_model", "python", "numpy", "scipy",
                             "commit", "source_sha256", "seconds")},
                "workloads": table}
    text = json.dumps(baseline, indent=1, sort_keys=True)
    if args.json:
        args.json.write_text(text + "\n")
    for workload, entry in table.items():
        print(f"== {workload}: {entry['runs']} runs, all correct: {entry['all_correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {100 * s['spread']:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
