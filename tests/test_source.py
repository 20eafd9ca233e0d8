"""The package keeps two promises that no other test would notice breaking:
it imports only the standard library, and it writes no float literal."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynmatch"


def test_standard_library_only_and_no_float_literals():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "concepts.py" in modules
    broken = []
    for path in modules:
        where = path.relative_to(PACKAGE)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                broken.append(f"{where}:{node.lineno}: float {node.value!r}")
            broken += [
                f"{where}:{node.lineno}: import {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert broken == []
