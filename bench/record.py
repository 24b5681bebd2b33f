"""Summarise the per-run results under .bench_build/results into one record.

    python3 bench/record.py bench/records/<name>.json

For every workload and metric it keeps the values, their median and
quartiles (``statistics.quantiles(n=4)``) and the spread (quartile distance
over the median); untraced runs give the end-to-end metrics, traced runs
the per-layer ones.  Machine details and the commit come from the runs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(out) -> int:
    runs = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / ".bench_build" / "results").glob("*.json"))]
    if not runs:
        print("record: no results under .bench_build/results", file=sys.stderr)
        return 2
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    seeds = defaultdict(set)
    for run in runs:
        kind = "per_layer" if run["trace"] else "end_to_end"
        seeds[run["workload"]].add(run["seed"])
        for name, m in run["metrics"].items():
            values[(run["workload"], kind)][name].append(m["value"])
            units[name] = m["unit"]
    record = {
        "machine": runs[-1]["machine"],
        "seconds": runs[-1]["seconds"],
        "seeds": {wl: sorted(s) for wl, s in seeds.items()},
        "workloads": {},
    }
    for (wl, kind), metrics in sorted(values.items()):
        record["workloads"].setdefault(wl, {})[kind] = {
            name: {"unit": units[name], **summarise(v)} for name, v in metrics.items()}
    Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
