"""The package keeps promises that no other test would notice breaking: it
imports only the standard library, it writes no float literal, and every
name it imports is read."""

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


def _read_names(tree) -> set:
    """Names the module reads: as a name (the root of an attribute is one),
    inside a string annotation, or as an entry of ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
        # An argument or annotated assignment, or a function's return.
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for leaf in ast.walk(annotation) if annotation is not None else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                read |= _read_names(ast.parse(leaf.value, mode="eval"))
    return read


def test_every_imported_name_is_read():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        where = path.relative_to(PACKAGE)
                        unused.append(f"{where}:{node.lineno}: {name}")
    assert unused == []


def _scopes_reading(tree, name) -> list:
    """The qualified scope ("" for the module) of every read of ``name``,
    as a name or as an attribute, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_framework_scans_only_through_the_scan_memo():
    # The one static scan is statics.unblocked; ConjectureFamily._scan calls
    # it on a memo miss, so no last-period or candidate scan bypasses the
    # memo, and a faster scan goes in that one place.
    tree = ast.parse((PACKAGE / "framework.py").read_text(encoding="utf-8"))
    assert _scopes_reading(tree, "unblocked") == ["ConjectureFamily._scan"]
