"""dynmatch benchmark: cold solves on the paper's fixtures and on generated
ladder markets, and warm re-queries of one Solver.

    python3 bench/run.py --workload fixtures --seed 3 --seconds 5 --trace 0

Each run of a workload happens in a fresh interpreter (bench/worker.py),
started one at a time, so no run reads caches another filled.  Cold
workloads start one worker per round until --seconds of timed work are
done; the warm workload's worker repeats rounds for --seconds.  Workers that
only set up are then started until the set-up times add up to SETUP_SECONDS
(or there are SETUP_MAX_SAMPLES of them).

With --trace 0 the last line holds the end-to-end metrics:

- setup_s: median time from starting a worker to the end of its set-up;
- wall_s: median wall time of one round;
- peak_rss_mib: median peak resident set size of the timed workers.

Both times are in reference seconds: seconds measured, divided by the mean
duration of the speed probe run alongside them (worker.SpeedProbe), times
REFERENCE_PROBE_S.  Raw seconds drift with the speed of the shared machine
the benchmark runs on; they are printed before the result, not gated.  With
--trace 1 the last line holds the per-layer metrics of layers.py, from one
more worker, traced.  Every metric is printed with its unit on the lines
before the last, and so is fail_ratio (failed ÷ attempted operations).  The
result's "correct" is false if any operation raised, exited with a code its
report does not explain, or gave a wrong report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from workloads import COLD, CONCEPTS, ROOT, WORKLOADS  # noqa: E402

# Set-up takes about 0.15 s for a cold workload and 3.5 s for the warm one;
# the short ones are sampled many times, so that their median is as steady.
SETUP_SECONDS = 2.0
SETUP_MAX_SAMPLES = 25
# Whole-command limit: every worker must end within it.
DEADLINE_S = 170.0

# The duration of one speed probe at the reference speed: about its median
# on the 2-core Xeon VM the benchmark was defined on.
REFERENCE_PROBE_S = 0.001

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def spawn(args, mode, budget, deadline):
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before the next worker")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--budget", repr(budget),
        "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: {mode} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(args, mode, deadline):
    """Workers of one mode until --seconds of rounds are timed."""
    results, timed = [], 0.0
    while not results or timed < args.seconds:
        result = spawn(args, mode, args.seconds - timed, deadline)
        results.append(result)
        timed += sum(r["wall"] for r in result["rounds"])
        if args.workload not in COLD:
            break
    return results


def rounds_of(results):
    return [r for result in results for r in result["rounds"]]


def median_round(results, key):
    return statistics.median(r[key] for r in rounds_of(results))


def reference_s(seconds, probe_s, probes):
    """Seconds measured alongside `probes` probes that took `probe_s`, at the
    reference speed."""
    if not probes:
        raise SystemExit("benchmark: no speed probe ran while timing")
    return seconds * probes / probe_s * REFERENCE_PROBE_S


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    results = run_workers(args, "run", deadline)
    if args.trace:
        traced = [spawn(args, "trace", args.seconds, deadline)]
        metrics = dict(traced[0]["layers"])
        for c in CONCEPTS:
            metrics[f"concepts.{c}.solve_s"] = statistics.median(
                r["concepts"].get(c, 0.0) for r in rounds_of(results)
            )
        metrics["raw.wall_s"] = median_round(results, "wall")
        metrics["raw.cpu_s"] = median_round(results, "cpu")
        metrics["trace.overhead_s"] = median_round(traced, "wall") - median_round(
            results, "wall"
        )
        units = UNITS
        results += traced
    else:
        setups = list(results)
        while len(setups) < SETUP_MAX_SAMPLES and (
            sum(r["setup_s"] for r in setups) < SETUP_SECONDS
        ):
            setups.append(spawn(args, "setup", 0.0, deadline))
        raw_setup = statistics.median(r["setup_s"] for r in setups)
        metrics = {
            # Set-up windows are short, so their probes are pooled.
            "setup_s": reference_s(
                raw_setup,
                sum(r["probe_s"] for r in setups),
                sum(r["probes"] for r in setups),
            ),
            "wall_s": statistics.median(
                reference_s(r["wall"], r["probe_s"], r["probes"])
                for r in rounds_of(results)
            ),
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in results),
        }
        units = END_TO_END
        print(
            f"raw seconds (drift with the machine's speed): setup_s {raw_setup:.6f}"
            f"  wall_s {median_round(results, 'wall'):.6f}"
            f"  cpu_s {median_round(results, 'cpu'):.6f}"
        )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds_of(results))}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6f} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6f} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
