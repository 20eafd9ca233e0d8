"""The README's code blocks run as written: its library example solves, and
its `.econ` example loads and solves under every concept."""

import re
from pathlib import Path

from dynmatch import Solver
from dynmatch.concepts import CONCEPT_NAMES
from dynmatch.dsl import load

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(section: str, language: str) -> list:
    """The fenced blocks tagged ``language`` under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", body, re.M | re.S)


def test_the_library_example_runs():
    (source,) = _blocks("Library", "python")
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.concept == "re"
    assert report.solutions


def test_the_economy_file_example_loads_and_solves():
    (text,) = _blocks("Economy files (`.econ`)", "")
    economy, _ = load(text)
    assert economy.horizon == 2
    solver = Solver()
    for concept in CONCEPT_NAMES:
        assert solver.solve(concept, economy).solutions, concept
