"""One workload in one fresh interpreter: set-up, timed rounds, checks.

Started by ``run.py``; prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up once and report the time), ``run`` (set up, then
run whole rounds until S seconds have passed) or ``trace`` (set up traced,
one round untraced, then one round traced, and report per-layer metrics).

In the modes ``setup`` and ``run`` a ``HostClock`` samples the host's speed
from the start of the worker, and every time is reported both plain and
corrected to the nominal host speed (see hostclock.py).  A traced worker
runs no clock, so that sampling does not show in its spans.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """The sumchoice package of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    lib = importlib.import_module("sumchoice")
    if not Path(lib.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sumchoice imported from {lib.__file__}, not from {src}")
    return lib


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; run.py stays far smaller than a worker,
    # so the value a worker inherits across exec does not show
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PlainClock:
    """The HostClock interface without sampling, for traced workers: the
    corrected time is the plain time."""

    def __init__(self, start_at: float):
        self.start_at = start_at

    def program_s(self) -> float:
        return time.perf_counter()

    def read(self) -> tuple[float, float]:
        now = time.perf_counter()
        return now, now - self.start_at

    def speed(self) -> float:
        return 1.0

    def stop(self) -> None:
        pass


def run_round(wl, lib, k: int, clock, tracer=None) -> dict:
    """Time one round of operations, then check the answers."""
    ops = wl.prepare(lib, k)
    gc.collect()  # garbage of earlier rounds is not this round's cost
    results, latencies = [], []
    start, start_ref = clock.read()
    for op in ops:
        t = clock.program_s()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    result = wl.call(lib, op)
            else:
                result = wl.call(lib, op)
        except Exception as exc:  # one operation failed; the round goes on
            result = exc
        latencies.append(clock.program_s() - t)
        results.append(result)
    wl.end_round()
    end, end_ref = clock.read()

    kinds, errors, failures, ok = [], [], [], []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            kinds.append("failed")
            failures.append(f"{type(result).__name__}: {result}")
            continue
        kinds.append(wl.kind(lib, result))
        ok.append((op, result))
        problem = wl.check(lib, op, result)
        if problem:
            errors.append(problem)
    errors.extend(wl.check_round(lib, [op for op, _ in ok], [r for _, r in ok]))
    return {"wall_s": end - start, "ref_s": end_ref - start_ref,
            "attempted": len(ops), "failed": len(failures),
            "latency_s": latencies, "kinds": kinds, "errors": errors,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir: Path) -> int:
    wl = WORKLOADS[args.workload](args.seed, workdir)
    # sampling starts now; the time since _T0 is corrected by the first sample
    clock = (PlainClock(_T0) if args.mode == "trace"
             else HostClock(start_at=_T0).start())
    try:
        return _run(args, wl, clock)
    finally:
        clock.stop()


def _run(args, wl, clock) -> int:
    tracer = None
    lib = import_program()
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            wl.setup(lib)
        tracer.uninstall()
    else:
        wl.setup(lib)
    setup_end, setup_ref_s = clock.read()
    setup_s = setup_end - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s,
                          "speed": clock.speed()}))
        return 0

    errors = wl.setup_problems()
    rounds = []
    if args.mode == "run":
        # whole rounds; another only when it should end within the run time
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start + rounds[-1]["wall_s"]
                             <= args.seconds):
            rounds.append(run_round(wl, lib, len(rounds), clock))
    else:
        rounds.append(run_round(wl, lib, 0, clock))
        tracer.install()
        rounds.append(run_round(wl, lib, 1, clock, tracer))
        tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "speed": clock.speed(),
        "peak_rss_mib": peak_rss_mib(),
        "rounds": rounds,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors + [e for r in rounds for e in r.pop("errors")],
        "failures": [e for r in rounds for e in r.pop("failures")],
    }
    if tracer is not None:
        from tracer import layer_metrics
        metrics, absent, problems = layer_metrics(
            tracer, rounds[0]["wall_s"], rounds[1]["wall_s"])
        out["layers"] = metrics
        out["absent"] = absent
        out["errors"] += problems
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
