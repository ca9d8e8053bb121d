"""sumchoice benchmark: four workloads, end-to-end metrics, traced per-layer
split.  Run from the root of a checkout:

    python3 perfbench/run.py --workload five-vertex --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters started one at a time: one that
sets up and then runs whole rounds for ``--seconds``, then two to eight
that only set up, for the median set-up time.  The gated times are
corrected for the shared host's drifting speed, which is sampled all
through each interpreter (hostclock.py).  With ``--trace 1`` a single
interpreter sets up traced, runs one round untraced and one traced, and
the per-layer metrics come from the traced spans.  The last line printed
is the result as one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median, percentile, tail_level  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An untraced run sets up in at least SETUP_MIN interpreters and, while
# their set-ups total under SETUP_BUDGET_S, in up to SETUP_MAX; setup_s is
# the median.  Cheap set-ups get more samples, which steadies the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
TIME_LIMIT_S = 170.0  # the whole run, children included


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def latency_metrics(rounds: list[dict], kinds=None) -> tuple[float, float, float, int]:
    """Median over rounds of each round's p50 and tail (ms), with the tail
    percentile and the number of samples per round."""
    p50s, tails, level, count = [], [], 50.0, 0
    for r in rounds:
        ms = sorted(lat * 1000.0 for lat, kind in zip(r["latency_s"], r["kinds"])
                    if kind != "failed" and (kinds is None or kind in kinds))
        if not ms:
            continue
        count = len(ms)
        level = tail_level(count)
        p50s.append(percentile(ms, 50))
        tails.append(percentile(ms, level))
    if not p50s:
        return 0.0, 0.0, level, 0
    return median(p50s), median(tails), level, count


def latency_report(rounds: list[dict]) -> dict:
    """name -> (value, unit, note); the note is empty where the workload
    has no operations of that kind and the value is 0."""
    out = {}
    for prefix, kinds in (("query", None), ("witness", {"witness"}), ("proof", {"proof"})):
        p50, tail, level, count = latency_metrics(rounds, kinds)
        note = (f"median over rounds; {count} samples per round" if count else "")
        out[f"{prefix}_ms_p50"] = (p50, "ms", note)
        out[f"{prefix}_ms_tail"] = (tail, "ms", note and f"p{level:g}, {note}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "sumchoice" / "__init__.py").is_file():
        return fail(f"no sumchoice sources under {ROOT / 'src'}; run from a checkout")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            main_run = run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
        else:
            main_run = run_worker(args.workload, args.seed, args.seconds, "run", deadline)
            setups = [main_run]
            while len(setups) < SETUP_MIN or (
                    len(setups) < SETUP_MAX
                    and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S):
                setups.append(run_worker(args.workload, args.seed, args.seconds,
                                         "setup", deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    rounds = main_run["rounds"]
    errors = main_run["errors"]
    for line in main_run["failures"][:20]:
        print(f"perfbench: {args.workload}: operation failed: {line}", file=sys.stderr)
    for line in errors[:20]:
        print(f"perfbench: {args.workload}: wrong answer: {line}", file=sys.stderr)
    correct = not errors

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"operations {main_run['attempted']} ({main_run['failed']} failed)  "
          f"kernel: pure-Python")
    # latencies of single operations: gated by no bound, because on a shared
    # host they spread too widely; reported with the per-layer metrics, from
    # the untraced round of a traced run
    latencies = latency_report(rounds[:1] if args.trace else rounds)
    if args.trace:
        metrics = dict(main_run["layers"])
        metrics.update((name, (value, unit)) for name, (value, unit, _) in latencies.items())
        for name, (value, unit) in metrics.items():
            print(f"  {name:<42} {value:>14.6g} {unit}")
        if main_run["absent"]:
            print(f"  absent (entry point gone): {', '.join(main_run['absent'])}")
        print(f"  spans written to {main_run['trace_file']}")
    else:
        # times corrected to the nominal host speed; the plain ones are
        # printed beside them, not gated
        setup_ref = [s["setup_ref_s"] for s in setups]
        metrics = {
            "wall_ref_s": (median(r["ref_s"] for r in rounds), "s"),
            "setup_s": (median(setup_ref), "s"),
            "peak_rss_mib": (main_run["peak_rss_mib"], "MiB"),
        }
        notes = {
            "wall_ref_s": f"median of {len(rounds)} round(s); plain "
                          f"{median(r['wall_s'] for r in rounds):.4f} s at host "
                          f"speed {main_run['speed']:.3f}",
            "setup_s": f"median of {len(setups)} set-ups: "
                       + ", ".join(f"{s:.3f}" for s in setup_ref)
                       + f"; plain {median(s['setup_s'] for s in setups):.4f} s",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>12.4f} {unit:<4} {notes.get(name, '')}")
        for name, (value, unit, note) in latencies.items():
            if note:
                print(f"  {name:<16} {value:>12.4f} {unit:<4} {note} (not gated)")

    result = {
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
