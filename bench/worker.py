"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  It sets up the workload,
runs it (one round for cold workloads, rounds until --budget seconds for the
warm one), checks every output, and prints one JSON line:

    {"setup_s", "probe_s", "probes",
     "rounds": [{"wall", "cpu", "probe_s", "probes", "concepts"}],
     "rss_mib", "attempted", "failed", "layers"?}

``setup_s`` runs from --spawned-at (the parent's clock just before it
started this process) to the end of set-up, so it includes interpreter
start and importing dynmatch; the top-level probe_s and probes are those of
the set-up.  A "setup" worker prints only these three.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import (
    COLD,
    ROOT,
    WARM_CONCEPTS,
    WARM_MARKETS,
    WORKLOADS,
    Warm,
    check_cold,
    digest,
    load_reference,
    solve_cli,
)

OUT = ROOT / ".bench_out"


def import_dynmatch():
    """Import dynmatch from this checkout's src/, and from nowhere else."""
    if "dynmatch" in sys.modules:
        raise RuntimeError("dynmatch is already imported: runs must not share caches")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dynmatch

    if Path(dynmatch.__file__).resolve().parent != src / "dynmatch":
        raise RuntimeError(f"dynmatch imported from {dynmatch.__file__}, not {src}")
    return dynmatch


class SpeedProbe:
    """A fixed piece of Fraction arithmetic and hashing, the solver's own kind
    of work, run from SIGALRM every INTERVAL seconds while armed.

    The machine is shared and its speed drifts by 15-30% over seconds to
    minutes, in wall and CPU time alike.  A time divided by the mean duration
    of the probes taken during it drifts far less; run.py reports times so
    normalized.  Probe time is subtracted from the times it interrupts.
    Garbage collection is held off during a probe, so that a large heap of
    the solver's never makes the probe look slow.
    """

    INTERVAL = 0.05

    def __init__(self):
        self.count, self.seconds = 0, 0.0

    @staticmethod
    def work():
        acc, seen = Fraction(0), set()
        for i in range(1, 80):
            value = Fraction(i % 97 + 1, 7) * Fraction(3, 4) ** (i % 3)
            seen.add((i % 50, value))
            acc += value
        return acc

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.work()
        self.seconds += time.perf_counter() - start
        self.count += 1
        if collecting:
            gc.enable()

    def _tick(self, signum, frame):
        self.sample()

    def arm(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_round(probe, calls):
    """Run (concept, thunk) calls in order; returns the round record and the
    thunks' results, None for a thunk that raised.  Times are net of probe
    time."""
    results, per_concept = [], {}
    count0, probe0 = probe.count, probe.seconds
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for concept, thunk in calls:
        start, probed = time.perf_counter(), probe.seconds
        try:
            results.append(thunk())
        except Exception:  # a failed operation; the run goes on
            traceback.print_exc()
            results.append(None)
        spent = time.perf_counter() - start - (probe.seconds - probed)
        per_concept[concept] = per_concept.get(concept, 0.0) + spent
    probe_s = probe.seconds - probe0
    record = {
        "wall": time.perf_counter() - wall0 - probe_s,
        "cpu": time.process_time() - cpu0 - probe_s,
        "probe_s": probe_s,
        "probes": probe.count - count0,
        "concepts": per_concept,
    }
    return record, results


def run(args):
    probe = SpeedProbe()
    probe.arm()
    dynmatch = import_dynmatch()
    import dynmatch.cli as cli

    workdir = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload in COLD:
        ops = COLD[args.workload](args.seed, workdir)
    else:
        warm = Warm(args.seed, workdir)
    probe.sample()  # a set-up shorter than INTERVAL still gets two samples
    setup = {
        "setup_s": time.time() - args.spawned_at - probe.seconds,
        "probe_s": probe.seconds,
        "probes": probe.count,
    }
    if args.mode == "setup":
        probe.disarm()
        return setup

    if args.workload in COLD:
        calls = [(op.concept, lambda op=op: solve_cli(cli, op)) for op in ops]
    else:
        queries = [(i, c) for i in range(WARM_MARKETS) for c in WARM_CONCEPTS]
        calls = [(c, lambda i=i, c=c: warm.query(i, c)) for i, c in queries]
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        probe.disarm()  # no normalized time is made under tracing
        tracer = Tracer()
        tracer.install(dynmatch)
    rounds, results = [], []
    started = time.perf_counter()
    try:
        while True:
            record, outputs = timed_round(probe, calls)
            rounds.append(record)
            results.append(outputs)
            if args.workload in COLD or time.perf_counter() - started >= args.budget:
                break
    finally:
        probe.disarm()
        if tracer is not None:
            tracer.restore()

    # Correctness, outside the timed phase.  Later rounds must repeat the
    # first round's outputs exactly; the first round is checked in full.
    if args.workload in COLD:
        reference = load_reference()
        first = [
            out is not None and check_cold(args.workload, op, *out, reference)
            for op, out in zip(ops, results[0])
        ]
        keys = [[out and (out[0], digest(out[1])) for out in r] for r in results]
        failed = sum(
            1
            for r in keys
            for ok, key, key0 in zip(first, r, keys[0])
            if not (ok and key == key0)
        )
    else:
        cold_ok = {q: warm.check_cold(*q) for q in queries}
        failed = sum(
            1 for r in results for q, ok in zip(queries, r) if not (ok and cold_ok[q])
        )
    result = {
        **setup,
        "rounds": rounds,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(len(r) for r in results),
        "failed": failed,
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, len(rounds))
        if tracer.missing:
            print(f"trace: not found: {', '.join(tracer.missing)}", file=sys.stderr)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans.open("w") as fh:
            for span_id, name, start, end, parent in tracer.spans():
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start - started,
                         "end": end - started, "parent": parent}
                    )
                    + "\n"
                )
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()
