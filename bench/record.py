"""Record bench/reference.json: the SHA-256 of every cold operation's
`solve --json` report at the default seed, from the code as it stands.

    python3 bench/record.py

Before a digest is written, the report's solution set is checked against
the recursive route (recursive_solution_set on a fresh Solver), and for the
fixtures every claim of `dynmatch reproduce example1|example2` must pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from ladder import DEFAULT_SEED
from worker import OUT, import_dynmatch
from workloads import COLD, REFERENCE, check_cold, digest, solve_cli


def main():
    import_dynmatch()
    import dynmatch.cli as cli
    from dynmatch.reproduce import RUNNERS

    for example, runner in sorted(RUNNERS.items()):
        failed = [label for label, passed, _ in runner() if not passed]
        if failed:
            sys.exit(f"record: reproduce {example} fails: {failed}")
    reference = {}
    for workload, build in COLD.items():
        workdir = OUT / "record" / workload
        workdir.mkdir(parents=True, exist_ok=True)
        reference[workload] = {}
        for op in build(DEFAULT_SEED, workdir):
            code, text = solve_cli(cli, op)
            if not check_cold(workload, replace(op, by_digest=False), code, text, {}):
                sys.exit(f"record: {workload} {op.label} fails the recursive-route check")
            reference[workload][op.label] = digest(text)
            print(f"{workload:16s} {op.label:24s} {digest(text)[:16]}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
