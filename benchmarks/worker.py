"""One benchmark worker: set up, run one pass of a workload, report.

run.py starts a fresh worker for every pass, so the library's module caches
start empty without the benchmark touching them.  The worker prints
"READY" as soon as `import qdisc` and the first QContext are done (run.py
times set-up up to that line), then "CAL <seconds>", the host's speed
right after set-up.  Unless started in "setup" mode it then runs the
seeded op sequence once and prints one "RESULT <json>" line.

The host's speed is the median time of a fixed pure-Python loop (a
calibration chunk).  During a pass a timer signal runs one chunk every
CAL_EVERY_S in the main thread, and the time spent on chunks is taken out
of every op's latency, so run.py can express the pass's times at a fixed
reference speed even when a single op runs for half a minute.

    python worker.py '<json config>'

Config keys: root (checkout root), workload, seed, trace (0/1),
mode ("pass" or "setup"), out (directory for reports and spans), tag.
"""

import json
import signal
import statistics
import sys
from time import perf_counter

CAL_LOOPS = 20_000  # one calibration chunk: about 2 ms on a 2020s x86 core
CAL_EVERY_S = 0.05


def calibrate(chunks: int) -> list[float]:
    """Durations of `chunks` runs of a fixed pure-Python loop."""
    out = []
    for _ in range(chunks):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        out.append(perf_counter() - t0)
    return out


class Calibration:
    """Runs a calibration chunk on every SIGALRM tick while active and
    keeps the chunk times and the total time they took."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.chunks += calibrate(1)
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    import qdisc

    qdisc.QContext(0.5)
    print("READY", flush=True)
    print(f"CAL {statistics.median(calibrate(16))!r}", flush=True)
    if cfg["mode"] == "setup":
        return 0

    import os
    import resource

    src = os.path.join(cfg["root"], "src")
    if not os.path.abspath(qdisc.__file__).startswith(src + os.sep):
        print(f"qdisc imported from {qdisc.__file__}, not from {src}", file=sys.stderr)
        return 2

    from metrics import expected_functions, layer_metrics
    from tracer import Tracer, summarize
    from workloads import Runner, build_plan

    tag = cfg["tag"]
    plan = build_plan(cfg["workload"], cfg["seed"])
    runner = Runner(os.path.join(cfg["out"], f"{tag}.verify-report.json"))
    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install(expected_functions())

    latencies, kinds, errors = [], [], []
    failed, worst = 0, 0.0
    with Calibration() as cal:
        for i, op in enumerate(plan.ops):
            # read the clock outside the chunk counter on both ends, so a
            # tick in between can only lengthen the latency, never shorten it
            t0 = perf_counter()
            spent = cal.spent
            try:
                checks = tracer.op(i, op.kind, runner.run, op) if tracer else runner.run(op)
            except Exception as exc:  # an op that raises is a failed op; keep going
                checks = None
                errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            spent = cal.spent - spent
            latencies.append(perf_counter() - t0 - spent)
            kinds.append(op.kind)
            ok = checks is not None
            for name, res, tol in checks or ():
                if not res <= tol:
                    ok = False
                    errors.append(f"{op.kind}: {name} residual {res:.3e} > {tol:.1e}")
                if tol > 0:
                    worst = max(worst, res / tol)
            failed += not ok
    chunks = cal.chunks or calibrate(16)
    wall = sum(latencies)

    result = {
        "wall_s": wall,
        "cal_s": statistics.median(chunks),
        "cal_chunks": len(chunks),
        "latencies_s": latencies,
        "kinds": kinds,
        "attempted": len(plan.ops),
        "failed": failed,
        "errors": errors[:20],
        "worst_margin": worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summary = summarize(tracer)
        result["layers"] = layer_metrics(summary)
        result["by_name"] = summary["by_name"]
        result["absent"] = tracer.absent
        spans_path = os.path.join(cfg["out"], f"{tag}.spans.npz")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
