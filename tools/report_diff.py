"""Compare the `qdisc verify --format json` reports of two source trees.

Runs `python -m qdisc verify --format json` from each tree's `src` at the
ten sweep q (horizon 64) and, with --small-horizons, at q = 0.5 on
horizons 1..20, then prints every run whose exit code differs and every
check whose name, position, residual, tolerance, detail or pass flag
differs (`runtime_s` is not compared).  Exits 0 when nothing differs and
1 otherwise.  Stdlib only.

    python tools/report_diff.py OLD_TREE NEW_TREE [--small-horizons] [--checks PATTERNS]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SWEEP_Q = ("0.05", "0.1", "0.2", "0.3", "0.5", "0.7", "0.9", "0.95", "0.98", "0.995")
SMALL_HORIZONS = range(1, 21)
FIELDS = ("check", "residual", "tolerance", "detail", "pass")
JOBS = 2  # verify runs at a time


def run_verify(tree: Path, q: str, config: Path | None, checks: str | None) -> tuple:
    """The exit code and the parsed report (None if stdout is no JSON) of
    one verify run from tree's sources."""
    cmd = [sys.executable, "-m", "qdisc", "verify", "--q", q, "--format", "json"]
    if config:
        cmd += ["--config", str(config)]
    if checks:
        cmd += ["--checks", checks]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report


def differences(label: str, old: tuple, new: tuple) -> list[str]:
    """One line per differing exit code, report presence or check field."""
    (old_code, old_report), (new_code, new_report) = old, new
    lines = []
    if old_code != new_code:
        lines.append(f"{label}: exit code {old_code} -> {new_code}")
    if (old_report is None) != (new_report is None):
        lines.append(f"{label}: report {'missing' if new_report is None else 'added'}")
    if old_report is None or new_report is None:
        return lines
    pairs = itertools.zip_longest(old_report["checks"], new_report["checks"])
    for i, (a, b) in enumerate(pairs):
        if a is None or b is None:
            name = (a or b)["check"]
            lines.append(f"{label}: check {i} {name} {'missing' if b is None else 'added'}")
            continue
        for key in FIELDS:
            # json.dumps writes a float as its repr and nan as NaN, so equal
            # strings are equal values, nan included
            if json.dumps(a.get(key)) != json.dumps(b.get(key)):
                lines.append(f"{label}: check {i} {a['check']} {key} {a.get(key)!r} -> {b.get(key)!r}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="source tree whose src/ holds the reference qdisc")
    ap.add_argument("new", type=Path, help="source tree whose src/ holds the qdisc to compare")
    ap.add_argument("--small-horizons", action="store_true", help="also run q = 0.5 on horizons 1..20")
    ap.add_argument("--checks", help="comma-separated check name patterns, passed to verify")
    args = ap.parse_args(argv)

    runs = [(q, 64) for q in SWEEP_Q]
    if args.small_horizons:
        runs += [("0.5", h) for h in SMALL_HORIZONS]
    trees = (args.old.resolve(), args.new.resolve())
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(JOBS) as pool:
        configs = {64: None}
        for horizon in {h for _, h in runs} - {64}:
            configs[horizon] = Path(tmp) / f"horizon{horizon}.json"
            configs[horizon].write_text(json.dumps({"grid_horizon": horizon}))
        futures = {
            (run, tree): pool.submit(run_verify, tree, run[0], configs[run[1]], args.checks)
            for run in runs
            for tree in trees
        }
        results = {key: future.result() for key, future in futures.items()}
    lines, compared = [], 0
    for q, horizon in runs:
        old, new = (results[(q, horizon), tree] for tree in trees)
        compared += len(old[1]["checks"]) if old[1] else 0
        lines += differences(f"q={q} horizon={horizon}", old, new)
    for line in lines:
        print(line)
    print(f"{len(runs)} runs, {compared} checks compared, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
