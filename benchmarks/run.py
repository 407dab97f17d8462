"""Benchmark entry point: cold, closed-loop passes of one qdisc workload.

    python3 benchmarks/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Each pass is one client in one fresh worker process (see worker.py) that
issues the workload's seeded ops back to back.  Passes repeat while the
next one is expected to end within --seconds (at least one runs).  With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 half the time runs
untraced and half traced, and the line carries the per-layer metrics.
A detailed result file is written under .bench_out/ (see README.md).

Times are reported in reference seconds: each worker measures the host's
speed next to the work it times (worker.calibrate), and a time is scaled
by REF_CHUNK_S over the measured chunk time.  On a shared host whose speed
drifts by tens of percent over minutes this keeps two runs of the same
code comparable; the raw seconds stay in the detail file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 7  # set-up is timed on every worker, topped up to this many
DEADLINE_S = 170.0  # every worker is killed past this, and the run fails
BLAS_THREADS = 1  # one client on small matrices; keeps timings steady
REF_CHUNK_S = 0.002  # calibration chunk time that defines a reference second


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(cfg: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time in reference seconds and
    its RESULT (or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        cal = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or not cal.startswith("CAL ") or code != 0:
        raise BenchError(f"worker ({cfg['mode']}) failed with exit code {code}")
    setup *= REF_CHUNK_S / float(cal.split()[1])
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if cfg["mode"] == "pass" and result is None:
        raise BenchError("worker printed no result")
    return setup, result


def run_passes(base: dict, trace: int, seconds: float, deadline: float, first: int):
    """Run passes while the next one, timed like the last, ends within
    `seconds`; always at least one."""
    setups, passes = [], []
    stop = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last <= stop:
        cfg = dict(base, mode="pass", trace=trace, tag=f"{base['tag']}-pass{first + len(passes)}")
        t0 = time.perf_counter()
        setup, result = run_worker(cfg, deadline)
        last = time.perf_counter() - t0
        setups.append(setup)
        passes.append(result)
    return setups, passes


def scale(p: dict) -> float:
    """Factor from a pass's raw seconds to reference seconds."""
    return REF_CHUNK_S / p["cal_s"]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdisc" / "__init__.py").is_file():
        print(f"benchmark: no qdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed, "out": str(OUT), "tag": tag}
    plan = build_plan(args.workload, args.seed)

    try:
        if args.trace:
            _, plain = run_passes(base, 0, args.seconds / 2, deadline, 0)
            setups, traced = run_passes(base, 1, args.seconds / 2, deadline, len(plain))
        else:
            setups, plain = run_passes(base, 0, args.seconds, deadline, 0)
            traced = []
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_worker(dict(base, mode="setup", trace=0, tag=tag), deadline)[0])
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies_ms = [1e3 * s * scale(p) for p in plain for s in p["latencies_s"]]
    walls = [p["wall_s"] * scale(p) for p in plain]
    if args.trace:
        metrics = {
            name: statistics.median(
                p["layers"][name] * (scale(p) if unit == "s" else 1.0) for p in traced
            )
            for name, unit in PER_LAYER.items()
            if name in traced[0]["layers"]
        }
        metrics["spherical.key_repeat_share"] = plan.properties["key_repeat_share"]
        metrics["verify.worst_margin"] = max(p["worst_margin"] for p in passes)
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] * scale(p) for p in traced
        ) - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": percentile(latencies_ms, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    kinds = sorted({k for p in plain for k in p["kinds"]})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_info(),
        "inputs": plan.properties,
        "samples": {
            "passes_untraced": len(plain),
            "passes_traced": len(traced),
            "setup": len(setups),
            "ops": len(latencies_ms),
        },
        "fail_ratio": failed / attempted,
        "errors": [e for p in passes for e in p["errors"]][:20],
        "pass_wall_s": walls,
        "pass_wall_raw_s": [p["wall_s"] for p in plain],
        "pass_cal_s": [p["cal_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] * scale(p) for p in traced],
        "setup_s": setups,
        "op_p50_ms_by_kind": {
            k: statistics.median(
                1e3 * s * scale(p)
                for p in plain
                for s, kk in zip(p["latencies_s"], p["kinds"])
                if kk == k
            )
            for k in kinds
        },
        "absent": traced[0]["absent"] if traced else [],
        "by_name": traced[-1]["by_name"] if traced else {},
        "spans_files": [p["spans_file"] for p in traced],
        "elapsed_s": time.perf_counter() - t_start,
        "result": final,
    }
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
