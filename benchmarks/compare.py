"""Compare two sets of benchmark result files, metric by metric and
workload by workload.

    python3 benchmarks/compare.py OLD NEW

OLD and NEW are result files written by run.py (.bench_out/*.json) or
directories of them.  Runs are grouped by workload and trace mode; for each
metric the script prints both medians over the runs, the relative change,
and, for end-to-end metrics, whether the change is worse than the bound
fixed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    groups: dict[tuple[str, int], dict[str, list[float]]] = {}
    for f in files:
        doc = json.loads(f.read_text())
        if "result" not in doc:
            continue
        group = groups.setdefault((doc["workload"], doc["trace"]), {})
        for name, m in doc["result"]["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return groups


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'untraced'})")
        for name in old[key]:
            if name not in new[key]:
                print(f"  {name:42s} missing in NEW")
                continue
            a, b = statistics.median(old[key][name]), statistics.median(new[key][name])
            change = (b - a) / a if a else float("nan")
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                loss = change if better == "lower" else -change
                verdict = f"bound {bound:.2f}  " + ("WORSE" if loss > bound else "ok")
                worse += loss > bound
            print(f"  {name:42s} {a:12.5g} -> {b:12.5g}  {change:+8.1%}  {verdict}")
    for key in sorted(set(old) ^ set(new)):
        print(f"== {key[0]} (trace {key[1]}) present on one side only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
