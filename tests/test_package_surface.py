"""Every definition in src/pseudo is used by the program, not only by tests."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_has_a_caller_outside_tests():
    uses = defaultdict(list)  # name -> (path, line) of each Name and Attribute
    for path, tree in _trees("src/pseudo", "scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses[getattr(node, "id", None) or node.attr].append((path, node.lineno))
    unused = []
    for path, tree in _trees("src/pseudo"):
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            name = getattr(node, "name", "__")
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or (name.startswith("__") and name.endswith("__")) \
                    or any(p != path or not node.lineno <= line <= node.end_lineno
                           for p, line in uses[name]):
                continue
            if id(node) in owner:  # a base calls its override, as argparse _Parser.error
                cls = getattr(importlib.import_module(f"pseudo.{path.stem}"), owner[id(node)].name)
                if any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
