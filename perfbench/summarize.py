"""Summarize the run records in perfbench/out into one baseline file.

    python3 perfbench/summarize.py > perfbench/results/<name>.json

For each workload and metric it gives the number of runs, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  Per-layer metrics come from
the ``--trace 1`` records; a count that differs between them is listed under
``unsteady_counts`` (``cli.report_bytes`` is not a count: each suite's report
prints its own wall time, so the size moves by a few bytes).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(records: list) -> dict:
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    out = {}
    for name, runs in sorted(by_workload.items()):
        entry = {"seeds": {}, "end_to_end": {}, "per_layer": {}, "unsteady_counts": []}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            chosen = [r for r in runs if r["trace"] == trace]
            entry["seeds"][kind] = sorted(r["seed"] for r in chosen)
            values = defaultdict(list)
            for r in chosen:
                for k, m in r["metrics"].items():
                    values[k].append(m["value"])
            for k, v in sorted(values.items()):
                entry[kind][k] = {**stats(v), "unit": chosen[0]["metrics"][k]["unit"]}
                if trace == 1 and entry[kind][k]["unit"] in ("count", "index") \
                        and len(set(v)) > 1:
                    entry["unsteady_counts"].append(k)
        entry["min_margin_digits"] = sorted({r["min_margin_digits"] for r in runs},
                                            key=lambda m: (m is None, m))
        entry["fail_ratio_max"] = max(r["fail_ratio"] for r in runs)
        entry["all_correct"] = all(r["correct"] for r in runs)
        entry["seed_changes_inputs"] = runs[0]["seed_changes_inputs"]
        out[name] = entry
    first = records[0]
    return {"python": first["python"], "nproc": first["nproc"], "machine": first["machine"],
            "commits": sorted({r["commit"] for r in records}), "workloads": out}


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace[01].json"))]
    if not records:
        print(f"no run records in {OUT}", file=sys.stderr)
        return 1
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
