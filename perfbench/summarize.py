"""Median and quartile spread of each metric over the runs in perfbench/out.

    python3 perfbench/summarize.py [--trace 0|1] [--write FILE]

Groups the ``report-*.json`` files that ``run.py`` leaves in
``perfbench/out/`` by workload and prints, per metric, the median, the
interquartile range as a share of the median, and the number of runs.
``--write`` stores the same figures with the program digest, commit, inputs
and machine, as ``BASELINE.json`` does.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def _median_spread(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile range as a share of it."""
    median = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return median, (q[2] - q[0]) / median if median else 0.0


def summarize(reports: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for r in reports:
        by_workload.setdefault(r["workload"], []).append(r)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            median, spread = _median_spread([r["metrics"][name]["value"] for r in runs])
            metrics[name] = {"median": median, "unit": first["unit"], "spread": spread}
            unscaled = [r["unscaled_metrics"][name]["value"] for r in runs
                        if r.get("unscaled_metrics")]
            if len(unscaled) == len(runs) and unscaled != [r["metrics"][name]["value"]
                                                           for r in runs]:
                median, spread = _median_spread(unscaled)
                metrics[name].update(unscaled_median=median, unscaled_spread=spread)
        out[workload] = {
            "runs": len(runs),
            "inputs_digest": {str(r["seed"]): r["inputs_digest"]
                              for r in sorted(runs, key=lambda r: r["seed"])},
            "seconds": runs[0]["seconds"],
            "frontier_stops": runs[0]["frontier"],
            "metrics": metrics,
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write")
    args = ap.parse_args()
    reports = []
    for path in sorted(glob.glob(os.path.join(HERE, "out", f"report-*-trace{args.trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    if not reports:
        raise SystemExit("no reports in perfbench/out")
    table = summarize(reports)
    for workload, s in table.items():
        for name, m in s["metrics"].items():
            unscaled = (f" (unscaled {m['unscaled_median']:.6g}, spread {m['unscaled_spread']:.3f})"
                        if "unscaled_spread" in m else "")
            print(f"{workload:10s} {name:24s} {m['median']:12.6g} {m['unit']:10s} "
                  f"spread {m['spread']:.3f} runs {s['runs']}{unscaled}")
    if args.write:
        first = reports[0]
        doc = {"program_digest": sorted({r["program_digest"] for r in reports}),
               "commit": sorted({r["commit"] for r in reports}),
               "versions": first["versions"], "nproc": first["nproc"],
               "workloads": table}
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
