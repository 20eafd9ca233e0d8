"""The package keeps promises that no other test would notice breaking: it
imports only the standard library, it writes no float literal, every name
it imports is read, and a family takes another's rule only by inheriting it."""

import ast
import sys
from importlib.util import resolve_name
from pathlib import Path

from dynmatch.concepts import FAMILIES
from dynmatch.framework import AgreeFamily

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


def test_framework_reaches_the_lone_wolf_check_only_through_stable_set():
    # statics.stable_set alone runs assert_lone_wolf, and the scan memo
    # computes every stable set it stores with it, so each is checked once.
    tree = ast.parse((PACKAGE / "framework.py").read_text(encoding="utf-8"))
    assert _scopes_reading(tree, "assert_lone_wolf") == []
    for name in ("stable_set", "StaticEconomy"):
        scopes = set(_scopes_reading(tree, name))
        assert scopes == {"ConjectureFamily._scan"}


def test_the_reference_imports_only_data_types_and_sentinels_from_the_package():
    # tests/reference.py is the solver's oracle, so it may share no code
    # with it: from dynmatch it takes only what a market, a matching and a
    # threshold are made of, and computes every set itself.
    path = Path(__file__).resolve().parent / "reference.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "dynmatch" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "dynmatch":
                imported |= {alias.name for alias in node.names}
    assert imported == {"Economy", "DynamicMatching", "NEG_INF", "POS_INF"}


def test_concepts_import_nothing_from_statics():
    # ds's filter and cvr-ds's refinement test first periods through the
    # family's scan memo (ConjectureFamily._among_matched), so no concept
    # runs a static test of its own beside the one shared path.
    tree = ast.parse((PACKAGE / "concepts.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = resolve_name("." * node.level + (node.module or ""), "dynmatch")
            imported |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
    assert "dynmatch.framework" in imported
    assert "dynmatch.statics" not in imported


def test_framework_raises_the_size_cap_only_in_the_scan():
    # ConjectureFamily._scan holds the cap rule of every static scan, so the
    # last-period solutions and the candidates trip it in one place.
    tree = ast.parse((PACKAGE / "framework.py").read_text(encoding="utf-8"))
    assert _scopes_reading(tree, "SizeLimitExceeded") == ["ConjectureFamily._scan"]


def test_only_stitch_guards_the_recursion():
    # matching.stitch is the one recursive step of the solver and of the
    # exhaustive routes, so it alone reads the recursion limit, catches
    # RecursionError and raises HorizonTooLong: a guard anywhere else would
    # leave some route without one.
    names = ("RecursionError", "getrecursionlimit", "HorizonTooLong")
    reads = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in names:
            reads |= {(name, path.name, scope) for scope in _scopes_reading(tree, name)}
    assert reads == {(name, "matching.py", "stitch") for name in names}


def _utility_owners(node) -> list:
    """The source of ``x`` in every ``x.utility`` read under ``node``."""
    return [
        ast.unparse(n.value)
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr == "utility"
    ]


def test_static_scans_read_utilities_from_the_profile():
    # A StaticEconomy checks its agents' sides once, when it is built, so the
    # scans and the period witness read the profile; Economy.utility would
    # look both sides up again on every pair of every pair set.
    statics = ast.parse((PACKAGE / "statics.py").read_text(encoding="utf-8"))
    framework = ast.parse((PACKAGE / "framework.py").read_text(encoding="utf-8"))
    (witness,) = [
        node
        for node in ast.walk(framework)
        if isinstance(node, ast.FunctionDef) and node.name == "period_witness"
    ]
    owners = _utility_owners(statics) + _utility_owners(witness)
    assert owners
    assert [o for o in owners if not o.endswith(".profile")] == []


def test_no_class_body_copies_another_class_attribute():
    # A family takes another's rule by inheriting it, so the rule has one
    # home: a class body that assigns ``name = Other.attr`` copies it.
    copies = []
    for module in ("framework.py", "concepts.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                value = getattr(node, "value", None)
                if (
                    isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id != cls.name
                ):
                    copies.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert copies == []


def test_every_concept_but_stable_inherits_agree_last_period_rules():
    # AgreeFamily holds the horizon-1 thresholds and consistency answer of
    # agree, ds, re, cvr-ds and sds, and their one-sided-period solutions:
    # no concept class defines _solutions again.
    assert {
        name for name, cls in FAMILIES.items() if issubclass(cls, AgreeFamily)
    } == set(FAMILIES) - {"stable"}
    assert {
        base.__name__
        for cls in FAMILIES.values()
        for base in cls.__mro__
        if "_solutions" in vars(base)
    } == {"ConjectureFamily", "AgreeFamily"}
