"""Every definition in `src/gsfit` is named somewhere outside the tests.

A module-level function or class, or a method, counts as used when its
name appears in `src/gsfit` outside its own definition (the `__init__`
re-export, an import, does not count); in `perfbench/*.py` as a name, an
attribute or a string constant, since the tracer names the attributes it
wraps as strings; or as a call in README.md, the CI workflow or
pyproject.toml. Dunder methods and numpy's `generate_state` seed-sequence
protocol are exempt.
"""

from __future__ import annotations

import ast
import re
import shutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"generate_state"}


def _names(tree: ast.AST, strings: bool = False) -> Counter:
    """Occurrences of each identifier read as a name or an attribute, and
    of each string constant when `strings`."""
    seen: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of every class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node


def unused_definitions(root: Path = ROOT) -> list[str]:
    """`module.name` of each definition under root's `src/gsfit` that no
    outside-the-tests place names, sorted."""
    trees = {p: ast.parse(p.read_text()) for p in sorted((root / "src/gsfit").glob("*.py"))}
    in_src = sum((_names(t) for t in trees.values()), Counter())
    outside = Counter()
    for p in sorted((root / "perfbench").glob("*.py")):
        outside += _names(ast.parse(p.read_text()), strings=True)
    for rel in ("README.md", ".github/workflows/tier1.yml", "pyproject.toml"):
        outside.update(re.findall(r"(\w+)\(", (root / rel).read_text()))
    unused = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            # uses inside the definition itself (recursion) do not count
            if in_src[name] - _names(node)[name] > 0 or outside[name] > 0:
                continue
            unused.append(f"{path.stem}.{name}")
    return sorted(unused)


def test_every_src_definition_is_used_outside_the_tests():
    assert unused_definitions() == []


def test_the_check_names_a_definition_only_tests_use(tmp_path):
    # a copy of the tree with one function that nothing outside the
    # tests names, and one that only calls itself
    for rel in ("src/gsfit", "perfbench"):
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    for rel in ("README.md", ".github/workflows/tier1.yml", "pyproject.toml"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    with open(tmp_path / "src/gsfit/expr.py", "a") as f:
        f.write("\n\ndef only_tests_call_this():\n    return 1\n"
                "\n\ndef spin(n):\n    return spin(n - 1) if n else 0\n")
    assert unused_definitions(tmp_path) == ["expr.only_tests_call_this", "expr.spin"]
