"""Every definition in src/pseudo is used by the program, not only by tests."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pseudo
from conftest import constant_ring_maps, src_env
from pseudo.cohomology import _Stencil
from pseudo.polyring import _RingMap

ROOT = Path(__file__).resolve().parent.parent


def _trees(*folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_has_a_caller_outside_tests():
    # name -> (path, line, whether it is an attribute) of each Name and
    # Attribute; a method is called as x.name, so only attributes count for it
    uses = defaultdict(list)
    for path, tree in _trees("src/pseudo", "scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                attribute = isinstance(node, ast.Attribute)
                uses[node.attr if attribute else node.id].append((path, node.lineno, attribute))
    unused = []
    for path, tree in _trees("src/pseudo"):
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            name = getattr(node, "name", "__")
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or (name.startswith("__") and name.endswith("__")) \
                    or any(p != path or not node.lineno <= line <= node.end_lineno
                           for p, line, attribute in uses[name]
                           if attribute or id(node) not in owner):
                continue
            if id(node) in owner:  # a base calls its override, as argparse _Parser.error
                cls = getattr(importlib.import_module(f"pseudo.{path.stem}"), owner[id(node)].name)
                if any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_division_goes_through_the_quotient_helper():
    """An int / int is a float, so the coefficients' one division is
    ``polyring._quotient``; any other ``/`` in the package is a stray."""
    found, stray = False, []
    for path, tree in _trees("src/pseudo"):
        helper = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("polyring.py", "_quotient"):
                found, helper = True, {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) \
                    and id(node) not in helper:
                stray.append(f"{path.name}:{node.lineno}")
    assert found and stray == []


def test_only_exactla_names_the_echelon():
    """Every elimination reaches ``exactla.Echelon`` through ``exactla``'s
    own entries, which take sparse columns: its lead convention (smallest
    column, and the slice reading built on it) stays behind that one
    module, so no other module of the package names ``Echelon``."""
    stray = []
    for path, tree in _trees("src/pseudo"):
        if path.name == "exactla.py":
            continue
        for node in ast.walk(tree):
            if "Echelon" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
                isinstance(node, ast.alias) and "Echelon" in (node.name, node.asname)
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_only_cohomology_names_the_stencil_and_its_labels():
    """The stencil's codes, the index labels and the raw term form of a
    cochain stay behind ``cohomology``: every other module asks it for a
    d-verdict (``_differential_equals``) or a preimage (``_preimage``),
    so no other module names the stencil or the term builders."""
    private = {"_stencil", "_Stencil", "_from_terms", "_terms"}
    stray = []
    for path, tree in _trees("src/pseudo"):
        if path.name == "cohomology.py":
            continue
        for node in ast.walk(tree):
            if private & {getattr(node, "id", None), getattr(node, "attr", None)} or (
                isinstance(node, ast.alias) and private & {node.name, node.asname}
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_only_the_owners_of_kept_values_name_kept():
    """What is kept on an algebra or a module is kept by the module that
    derives it: the axiom verdicts by ``conformal.associativity_failure``
    and ``cfmodule.axiom_failure``, the stencil and the grading by
    ``cohomology``.  Every other module reads a verdict through those two
    functions, so no other module names ``_kept``, nor the ``_memo`` it
    keeps values in."""
    owners = {"conformal.py", "cfmodule.py", "cohomology.py"}
    private = {"_kept", "_memo"}
    stray = []
    for path, tree in _trees("src/pseudo"):
        if path.name in owners:
            continue
        for node in ast.walk(tree):
            if private & {getattr(node, "id", None), getattr(node, "attr", None)} or (
                isinstance(node, ast.alias) and private & {node.name, node.asname}
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_only_main_writes_to_stdout():
    """A report reaches stdout from ``cli.main`` alone: nothing else in
    cli.py names ``sys.stdout``, and no ``print`` there lacks a file."""
    tree = ast.parse((ROOT / "src/pseudo/cli.py").read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "stdout" and id(node) not in in_main \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            stray.append(node.lineno)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" \
                and not any(k.arg == "file" for k in node.keywords):
            stray.append(node.lineno)
    assert stray == []


def test_no_global_or_identity_keyed_cache():
    """What is derived once is kept on the object it belongs to and dies
    with it: no ``functools`` cache, which outlives every argument, and no
    ``id(...)``, which a later object can reuse."""
    banned = {"lru_cache", "cache"}
    stray = []
    for path, tree in _trees("src/pseudo"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools" \
                    and any(alias.name in banned for alias in node.names):
                stray.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr in banned \
                    and isinstance(node.value, ast.Name) and node.value.id == "functools":
                stray.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id":
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def _package_state():
    """Each ``pseudo.*`` module global and each class attribute of the
    package, walked through the containers that hold them."""
    modules = [importlib.import_module(f"pseudo.{info.name}")
               for info in pkgutil.iter_modules(pseudo.__path__) if info.name != "__main__"]
    stack = [(f"{m.__name__}.{name}", value) for m in modules for name, value in vars(m).items()]
    seen = set()
    while stack:
        where, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield where, value
        if isinstance(value, dict):
            stack.extend((f"{where}[{key!r}]", item) for key, item in value.items())
            stack.extend((f"{where} key", key) for key in value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend((f"{where} item", item) for item in value)
        elif isinstance(value, type) and value.__module__.startswith("pseudo."):
            stack.extend((f"{where}.{name}", item) for name, item in vars(value).items())


def _derive_everything():
    """Checkers, the differential, a cohomology slice, a deformation and an
    extension with its witness search, all on objects made here; the
    module they share."""
    from pseudo import (BimoduleStructure, Cochain, DeformationDatum, ExtensionDatum,
                        TruncationWindow, build_extension, check_associativity,
                        check_module_axioms, cohomology_dimensions, deform,
                        find_extension_witness, gamma_coboundary)
    from pseudo.formats import parse_algebra

    algebra = parse_algebra((ROOT / "inputs" / "mat2.alg").read_text(encoding="utf-8"))
    module = BimoduleStructure.regular(algebra)
    check_associativity(algebra)
    check_module_axioms(module)
    cohomology_dimensions(algebra, module, 2, TruncationWindow(1, 1))
    deform(DeformationDatum(algebra, Cochain.zero(algebra, module, 2)))
    one = pseudo.Poly.const(("del",), 1)
    gamma = gamma_coboundary(module, module, {(0, 1): one, (2, 3): one})
    build_extension(ExtensionDatum(algebra, module, module, gamma))
    find_extension_witness(module, module, gamma, 1)
    return module


def test_only_the_named_constants_keep_ring_maps_across_calls(monkeypatch):
    """The ring maps that depend on no input are module constants, built
    once per process, and are the only module-level ring maps; every other
    one is built for a call or kept on the object it was derived from.
    When equal but fresh objects derive it all again, no ring map is built
    but the stencil maps of their fresh module, and no module global,
    class attribute or constant map's image memo grows."""
    _derive_everything()
    sizes = {where: len(value) for where, value in _package_state()
             if isinstance(value, (dict, list, set))}
    images = {name: len(ring._images) for name, ring in constant_ring_maps().items()}
    built = []
    original = _RingMap.__init__
    monkeypatch.setattr(_RingMap, "__init__",
                        lambda ring, *args: built.append(ring) or original(ring, *args))
    module = _derive_everything()
    derived = len(built)
    built.clear()
    for key in module._memo:
        if isinstance(key, tuple) and key[0] == "stencil":
            _Stencil(module, key[1])
    assert derived == len(built) > 0
    state = list(_package_state())
    assert {id(value) for _, value in state if isinstance(value, _RingMap)} \
        == {id(ring) for ring in constant_ring_maps().values()}
    grown = [where for where, value in state
             if isinstance(value, (dict, list, set)) and len(value) != sizes.get(where)]
    assert grown == []
    assert {name: len(ring._images) for name, ring in constant_ring_maps().items()} == images


# run in a fresh interpreter: pytest itself has loaded the whole package
# and the standard modules whose absence is checked
STARTUP_PROBE = """
import sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "pseudo")

import pseudo
package = loaded()
listed = sorted(set(pseudo.__all__) - set(dir(pseudo)))
import pseudo.cli
cli = loaded()
stdlib = sorted({"dataclasses", "inspect", "json"} & set(sys.modules))
pseudo.cli.main(["check", "inputs/mat2.alg"])
check = loaded()
homes = [name for name in pseudo.__all__[1:]
         if getattr(pseudo, name) is not getattr(sys.modules[getattr(pseudo, name).__module__], name)]
try:
    pseudo.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(repr((package, cli, stdlib, check, homes, listed, unknown)))
"""


def test_startup_loads_only_what_the_command_runs():
    """``import pseudo`` loads no module of the package; ``pseudo.cli``
    loads the four every command runs and none of ``dataclasses``,
    ``inspect`` or ``json``; ``check`` loads no cohomology, construction
    or elimination; and every public name resolves, on first use, to the
    object in its home module."""
    result = subprocess.run([sys.executable, "-c", STARTUP_PROBE], capture_output=True,
                            text=True, env=src_env(), cwd=ROOT, timeout=60)
    assert result.returncode == 0, result.stderr
    package, cli, stdlib, check, homes, listed, unknown = ast.literal_eval(
        result.stdout.splitlines()[-1]
    )
    assert package == ["pseudo"]
    assert cli == ["pseudo", "pseudo.cfmodule", "pseudo.cli", "pseudo.conformal",
                   "pseudo.formats", "pseudo.polyring"]
    assert stdlib == []
    assert check == cli
    # each public name is listed once, in the table __all__ is built from
    listings = sum(len(names.split()) for names in pseudo._PUBLIC.values())
    assert listings == len(pseudo.__all__) - 1
    assert (homes, listed, unknown) == ([], [], "AttributeError")
