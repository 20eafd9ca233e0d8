"""The benchmark's workloads: their inputs, operations and correctness checks.

Every workload is closed-loop with one caller: each operation starts when the
previous one returns.  Cold workloads run ``dynmatch solve --json`` in-process
through ``dynmatch.cli.main``, one fresh ``Solver`` per operation.  The warm
workload re-queries one ``Solver`` whose caches its set-up filled.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from ladder import DEFAULT_SEED, ladder_text

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
CONCEPTS = ("stable", "agree", "re", "ds", "cvr-ds", "sds")


@dataclass(frozen=True)
class Op:
    label: str
    path: str
    concept: str
    # True when the report's digest is checked against reference.json;
    # otherwise its solution set is checked against the recursive route.
    by_digest: bool


def fixture_ops(seed, workdir):
    fixtures = ROOT / "src" / "dynmatch" / "fixtures"
    return [
        Op(f"{name}/{c}", str(fixtures / f"{name}.econ"), c, True)
        for name in ("example1", "example2")
        for c in CONCEPTS
    ]


def ladder_ops(markets):
    """Ops over ladder markets drawn in order from one Random(seed)."""

    def ops(seed, workdir):
        rng = random.Random(seed)
        out = []
        for i, (horizon, per_side, concepts) in enumerate(markets):
            text = ladder_text(horizon, per_side, rng)
            path = Path(workdir) / f"ladder-{horizon}x{per_side}-{i}.econ"
            path.write_text(text)
            for c in concepts:
                label = f"{path.stem}/{c}"
                out.append(Op(label, str(path), c, seed == DEFAULT_SEED))
        return out

    return ops


# Cold workloads: name -> function making the ops.  Each round runs every op
# once.  A ladder market's solve time varies from one market to the next, by
# 3% for 2x5 stable, 12% for 3x3 re plus sds, and 20-25% for stable on 2x4,
# 3x4 and 4x4.  So each ladder workload solves several markets drawn from its
# seed, of the sizes that vary least for the time they take.
COLD = {
    # The paper's reference markets, all six concepts: the path users run.
    "fixtures": fixture_ops,
    # One conjecture per agent, so thresholds are trivial; time goes to
    # enumeration, History checks, period witnesses and candidates.
    "ladder-stable": ladder_ops([(2, 5, ("stable",))] * 2),
    # Many distinct deferred and continuation economies and cache misses.
    "ladder-deferral": ladder_ops([(3, 3, ("re", "sds"))] * 16),
}

WARM_MARKET = (2, 3)
WARM_MARKETS = 16
WARM_CONCEPTS = ("stable", "ds", "cvr-ds")
WORKLOADS = (*COLD, "warm-requery")


def solve_cli(cli, op):
    """One `dynmatch solve --json` call; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["solve", op.path, "--concept", op.concept, "--json"])
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    return json.loads(REFERENCE.read_text())


def oracle_solutions(path, concept):
    """Solution set by the recursive route, on a fresh Solver, as text."""
    from dynmatch.concepts import Solver
    from dynmatch.dsl import parse
    from dynmatch.framework import recursive_solution_set
    from dynmatch.matching import matching_text

    economy = parse(Path(path).read_text()).to_economy()
    family = Solver().family(concept)
    return [matching_text(m) for m in recursive_solution_set(economy, family)]


def check_cold(workload, op, code, text, reference):
    """Is one captured report correct?  See Op.by_digest."""
    try:
        report = json.loads(text)
    except ValueError:
        return False
    if code != (0 if report["solutions"] else 3):
        return False
    if op.by_digest:
        return reference.get(workload, {}).get(op.label) == digest(text)
    return report["solutions"] == oracle_solutions(op.path, op.concept)


class Warm:
    """One Solver over WARM_MARKETS ladder markets, its caches filled by
    set-up.  The work of a warm query varies from one market to the next by
    18% on 2x3 ladders, and twofold on 2x4 ones (it grows with the conjecture
    sets that get lifted), so a round queries many small markets."""

    def __init__(self, seed, workdir):
        from dynmatch.concepts import Solver
        from dynmatch.dsl import parse
        from dynmatch.matching import enumerate_matchings

        rng = random.Random(seed)
        self.solver = Solver()
        self.markets = []
        for i in range(WARM_MARKETS):
            text = ladder_text(*WARM_MARKET, rng)
            path = Path(workdir) / "warm-{}x{}-{}.econ".format(*WARM_MARKET, i)
            path.write_text(text)
            economy = parse(text).to_economy()
            cold = {c: self.solver.solve(c, economy) for c in WARM_CONCEPTS}
            self.markets.append((path, economy, cold, enumerate_matchings(economy)))

    def query(self, market, concept):
        """Warm solve plus is_phi_solution on every matching; True if both
        agree with the cold solve."""
        from dynmatch.framework import is_phi_solution

        _, economy, cold, matchings = self.markets[market]
        report = self.solver.solve(concept, economy)
        family = self.solver.family(concept)
        accepted = sum(
            1 for m in matchings if is_phi_solution(economy, m, family) is True
        )
        return report == cold[concept] and accepted == len(report.solutions)

    def check_cold(self, market, concept):
        from dynmatch.matching import matching_text

        path, _, cold, _ = self.markets[market]
        solutions = [matching_text(m) for m in cold[concept].solutions]
        return solutions == oracle_solutions(path, concept)
