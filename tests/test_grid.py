"""Known answers: every cohomology report on the committed-input grid,
and the verdicts of the construction routes.

The grid takes every committed input of ``conftest.committed_modules``
but the non-associative bad_*.alg, which cohomology refuses before it
computes, at n 0-3, D 0-2, margin 1-2 and max_rounds 1, 2 and 4, leaving
out n = 3 with D >= 1 on an algebra of rank above 2.

The verdict rows, labelled ``verdict ...``, pin what the routes to the
paper's three classifications answer:

- each inputs/*.coc through build_extension, deform and
  build_abelian_extension, over cur1's regular module and each
  inputs/*.mod;
- build_extension on seeded gluing data between every ordered pair of
  those modules and SPLIT_MODULE;
- deform and build_abelian_extension on seeded 2-cochains over mat2's
  regular module and over each inputs/*.mod, so an A (+) M of rank 8,
  and one over uleft.mod whose two actions differ, are pinned table by
  table;
- 40 seeded extension data and 2-cochains over cur1 and mat2, half of
  them flat by construction, through the same three constructions;
- 24 seeded deformation and 24 seeded extension witness searches, and
  for each witness found ``equivalent_deformations`` or
  ``equivalent_extensions`` on the witness and on it doubled.

A verdict row holds the verdict, or whether the search found a witness,
and the sha256 of the whole result as ``conftest.rendered`` renders it;
or the type and message of what the row raised.  No verdict row reads
perfbench/, so a change to a benchmark workload moves none.

grid_answers.json holds every row, one per line with the labels sorted.
A change that moves an answer on purpose regenerates it with

    PYTHONPATH=src python tests/test_grid.py --write

so the rows it moves show in its diff.
"""

import hashlib
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from operator import itemgetter
from pathlib import Path
from random import Random

from conftest import INPUTS, committed_modules, rendered, seeded_poly, top_degree
from pseudo.cfmodule import BimoduleStructure, CLinearMap
from pseudo.cohomology import (
    Cochain,
    TruncationWindow,
    apply_dn,
    cochain_variables,
    cohomology_dimensions,
)
from pseudo.conformal import PRODUCT_VARS
from pseudo.constructions import (
    AbelianExtensionDatum,
    DeformationDatum,
    ExtensionDatum,
    build_abelian_extension,
    build_extension,
    deform,
    equivalent_deformations,
    equivalent_extensions,
    find_deformation_witness,
    find_extension_witness,
    gamma_coboundary,
)
from pseudo.formats import parse_algebra, parse_cochain, parse_gamma, parse_module
from pseudo.polyring import Poly

ANSWERS = Path(__file__).resolve().parent / "grid_answers.json"
# n, D, margin and max_rounds of every grid job
GRID = list(product(range(4), range(3), (1, 2), (1, 2, 4)))
VERDICT = "verdict "
# the seeds of the gluing data and of the mat2 twists
SEEDS = range(1, 6)
# a rank-two module over cur1 whose action differs from the committed ones'
SPLIT_MODULE = """kind: module
generators: u v
actions: left
left e u -> 1 * u
left e v -> (lam + del) * u
"""
D1, D2, DEL = cochain_variables(1), cochain_variables(2), ("del",)


def grid_jobs():
    """(label, module, n, window, max_rounds) of every grid job."""
    for name, module in committed_modules():
        if name.startswith("bad_"):
            continue
        for n, bound, margin, max_rounds in GRID:
            if n == 3 and bound >= 1 and module.algebra.rank > 2:
                continue
            label = f"{name} H^{n} D={bound} margin={margin} max_rounds={max_rounds}"
            yield label, module, n, TruncationWindow(bound, margin), max_rounds


def canonical(basis) -> list:
    """A basis as plain data: its ambient dimension, then its rows by
    sorted pivot, each row's entries by sorted column, each coefficient
    an int or "p/q"."""

    def coeff(c):
        c = Fraction(c)
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    return [basis.ambient_dimension, [
        [pivot, [[col, coeff(c)] for col, c in sorted(row.items())]]
        for pivot, row in sorted(basis.rows.items())
    ]]


def record(module, n: int, window: TruncationWindow, max_rounds: int) -> list:
    """[dim Z, dim B, stabilized, rounds, proof, sha256 of the Z and B
    rows] of one job, or [exception type, message] when it raises."""
    try:
        rep = cohomology_dimensions(module.algebra, module, n, window, max_rounds)
    except Exception as exc:  # an exception is part of the answer
        return [type(exc).__name__, str(exc)]
    rows = json.dumps([canonical(rep.cocycles), canonical(rep.coboundaries)], separators=(",", ":"))
    return [rep.dim_cocycles, rep.dim_coboundaries, rep.stabilized, rep.rounds, rep.proof,
            hashlib.sha256(rows.encode("utf-8")).hexdigest()]


def records() -> dict:
    """Job label -> record, for every grid job."""
    return {label: record(*job) for label, *job in grid_jobs()}


def read_algebra(name: str):
    return parse_algebra((INPUTS / name).read_text(encoding="utf-8"))


def verdict_row(compute, verdict=itemgetter(1)) -> list:
    """[verdict(result), sha256 of the rendered result] of ``compute()``,
    or [exception type, message] when it raises.  The default verdict is
    the second item, where build_extension, deform and
    build_abelian_extension each return theirs."""
    try:
        result = compute()
    except Exception as exc:  # an exception is part of the answer
        return [type(exc).__name__, str(exc)]
    return [verdict(result), hashlib.sha256(repr(rendered(result)).encode("utf-8")).hexdigest()]


def cochain_rows(label: str, algebra, module, cochain):
    """The rows of deform and build_abelian_extension on ``cochain()``;
    what building it or a datum of it raises is the row's answer."""
    yield f"{label}: deform", verdict_row(lambda: deform(DeformationDatum(algebra, cochain())))
    yield f"{label}: build_abelian_extension", verdict_row(
        lambda: build_abelian_extension(AbelianExtensionDatum(algebra, module, cochain()))
    )


def glued_row(algebra, sub, quotient, gamma) -> list:
    """The row of build_extension gluing ``quotient`` to ``sub`` by ``gamma()``."""
    return verdict_row(lambda: build_extension(ExtensionDatum(algebra, sub, quotient, gamma())))


def witness_rows(label: str, search, equivalent, first, second):
    """The row of the witness search ``search()``, then for a witness
    found the rows of ``equivalent(first, second, ...)`` on it and on it
    doubled."""
    try:
        witness = search()
    except Exception as exc:  # an exception is part of the answer
        yield label, [type(exc).__name__, str(exc)]
        return
    yield label, verdict_row(lambda: witness, lambda found: found is not None)
    if witness is not None:
        for name, candidate in (("witness", witness), ("witness doubled", doubled(witness))):
            yield f"{label}: {equivalent.__name__} on the {name}", verdict_row(
                lambda: equivalent(first, second, candidate), bool
            )


def doubled(witness):
    """Twice a witness: a degree-1 cochain, or a map B as {(t, k): Poly}."""
    if isinstance(witness, dict):
        return {key: poly + poly for key, poly in witness.items()}
    return witness.scaled(2)


def gluing_data(sub, quotient, seed: int) -> dict:
    """Seeded gamma from ``quotient`` to ``sub``: the coboundary of a B of
    degree <= 1, plus on odd seeds a family of degree <= 2 on the first
    generator."""
    rng = Random(seed)
    b_matrix = {(t, k): seeded_poly(rng, DEL, 1)
                for t in range(quotient.rank) for k in range(sub.rank)}
    gamma = gamma_coboundary(sub, quotient, b_matrix)
    if seed % 2:
        bend = CLinearMap(quotient.generators, sub.generators, {
            (t, s): seeded_poly(rng, PRODUCT_VARS, 2)
            for t in range(quotient.rank) for s in range(sub.rank)
        })
        gamma[0] = gamma[0] + bend if 0 in gamma else bend
    return gamma


def twist_cochain(module, seed: int) -> Cochain:
    """Seeded 2-cochain over ``module``: the differential of a 1-cochain
    with one value of degree <= 1 on each generator, so a cocycle, plus on
    odd seeds a value of degree <= 2 on each of two seeded pairs."""
    algebra, rank = module.algebra, module.rank
    rng = Random(seed)

    def vector(variables, degree):
        vec = [Poly.zero(variables)] * rank
        vec[rng.randrange(rank)] = seeded_poly(rng, variables, degree)
        return tuple(vec)

    phi = apply_dn(Cochain(1, algebra, module, {(i,): vector(D1, 1) for i in range(algebra.rank)}))
    if seed % 2:
        pairs = [(rng.randrange(algebra.rank), rng.randrange(algebra.rank)) for _ in range(2)]
        phi = phi + Cochain(2, algebra, module, {pair: vector(D2, 2) for pair in pairs})
    return phi


def regular_modules():
    """(name, regular module) of cur1 and of mat2."""
    return [(name, BimoduleStructure.regular(read_algebra(f"{name}.alg")))
            for name in ("cur1", "mat2")]


def residual_cases():
    """(label, module, gamma, 2-cochain) of 40 seeded cases over the
    regular modules of cur1 and mat2 in turn: when case % 4 < 2 the
    coboundary of a B and the differential of a 1-cochain, so both flat,
    else a seeded family and 2-cochain."""
    rng = Random(20261018)
    regular = regular_modules()
    for case in range(40):
        name, module = regular[case % 2]
        algebra, gens = module.algebra, module.generators
        pairs = [(t, s) for t in range(module.rank) for s in range(module.rank)]
        # every pair for cur1, about 6 of the 16 for mat2
        density = 1.0 if module.rank == 1 else 0.375
        sparse = [pair for pair in pairs if rng.random() < density]
        if case % 4 < 2:
            b_matrix = {pair: seeded_poly(rng, DEL, 2) for pair in sparse}
            gamma = gamma_coboundary(module, module, b_matrix)
            g = {(i,): tuple(seeded_poly(rng, D1, 2) for _ in gens) for i, _ in sparse}
            cochain = apply_dn(Cochain(1, algebra, module, g))
        else:
            gamma = {
                i: CLinearMap(gens, gens, {pair: seeded_poly(rng, PRODUCT_VARS, 2)})
                for i, pair in zip(range(algebra.rank), sparse)
            }
            values = {}
            for pair in sparse:
                values[pair] = tuple(
                    seeded_poly(rng, D2, 2) if rng.random() < 0.5 else Poly.zero(D2)
                    for _ in gens
                )
            cochain = Cochain(2, algebra, module, values)
        yield f"{VERDICT}residual case {case:02} over {name}", module, gamma, cochain


def witness_cases():
    """(label, module, target 2-cochain, gamma, bound) of 24 seeded
    searches over the regular modules of cur1 and mat2 in turn: a
    coboundary of degree up to 4, searched for at a bound of 0 to 2, plus
    an obstructed part when case % 4 >= 2."""
    rng = Random(20261019)
    regular = regular_modules()
    for case in range(24):
        name, module = regular[case % 2]
        algebra, gens = module.algebra, module.generators
        obstructed = case % 4 >= 2
        degree, bound = rng.randint(0, 4), rng.randint(0, 2)
        scale = Fraction(rng.choice((1, 3)), rng.choice((1, 2))) * rng.choice((1, -1))
        picked = rng.sample(range(algebra.rank), min(2, algebra.rank))
        g = {(i,): tuple(seeded_poly(rng, D1, degree) for _ in gens) for i in picked}
        target = apply_dn(Cochain(1, algebra, module, g)).scaled(scale)
        if obstructed:
            bent = Poly.monomial(D2, (0, 1), scale)
            target = target + Cochain(2, algebra, module, {(0, 0): (bent,) * module.rank})
        pairs = [(t, s) for t in range(module.rank) for s in range(module.rank)]
        picked = rng.sample(pairs, min(2, len(pairs)))
        b_matrix = {pair: seeded_poly(rng, DEL, degree) for pair in picked}
        gamma = gamma_coboundary(module, module, b_matrix)
        if obstructed:
            kick = CLinearMap(gens, gens, {(0, 0): Poly.const(PRODUCT_VARS, scale)})
            gamma = {**gamma, 0: gamma[0] + kick if 0 in gamma else kick}
        yield f"{VERDICT}witness case {case:02} over {name}", module, target, gamma, bound


@cache
def verdict_records() -> dict:
    """Row label -> record, for every verdict row."""
    cur1, mat2 = read_algebra("cur1.alg"), read_algebra("mat2.alg")
    rows = {}
    modules = [("regular", BimoduleStructure.regular(cur1))]
    modules += [(path.name, parse_module(path.read_text(encoding="utf-8"), cur1))
                for path in sorted(INPUTS.glob("*.mod"))]
    for path in sorted(INPUTS.glob("*.coc")):
        text = path.read_text(encoding="utf-8")
        for name, module in modules:
            label = f"{VERDICT}{path.name} over {name}"
            rows[f"{label}: build_extension"] = glued_row(
                cur1, module, module, lambda: parse_gamma(text, cur1, module, module)
            )
            rows.update(cochain_rows(label, cur1, module,
                                     lambda: parse_cochain(text, cur1, module, 2)))
    for name, module in [("mat2", BimoduleStructure.regular(mat2)), *modules[1:]]:
        for seed in SEEDS:
            rows.update(cochain_rows(f"{VERDICT}{name} twist seed {seed}", module.algebra, module,
                                     lambda: twist_cochain(module, seed)))
    modules.append(("split", parse_module(SPLIT_MODULE, cur1)))
    for (sub_name, sub), (quotient_name, quotient) in permutations(modules, 2):
        for seed in SEEDS:
            label = f"{VERDICT}gluing {quotient_name} to {sub_name} seed {seed}: build_extension"
            rows[label] = glued_row(cur1, sub, quotient, lambda: gluing_data(sub, quotient, seed))
    for label, module, gamma, cochain in residual_cases():
        rows[f"{label}: build_extension"] = glued_row(module.algebra, module, module, lambda: gamma)
        rows.update(cochain_rows(label, module.algebra, module, lambda: cochain))
    for label, module, target, gamma, bound in witness_cases():
        algebra = module.algebra
        rows.update(witness_rows(
            f"{label}: find_deformation_witness",
            lambda: find_deformation_witness(algebra, target, bound),
            equivalent_deformations,
            DeformationDatum(algebra, target),
            DeformationDatum(algebra, Cochain.zero(algebra, module, 2)),
        ))
        rows.update(witness_rows(
            f"{label}: find_extension_witness",
            lambda: find_extension_witness(module, module, gamma, bound),
            equivalent_extensions,
            ExtensionDatum(algebra, module, module, gamma),
            ExtensionDatum(algebra, module, module, {}),
        ))
    return rows


def moved(got: dict, verdicts: bool) -> list[str]:
    """The labels of ``got``'s family, verdict rows or grid jobs, whose
    record differs from grid_answers.json or is on one side only."""
    answers = json.loads(ANSWERS.read_text(encoding="utf-8"))
    expected = {label: row for label, row in answers.items()
                if label.startswith(VERDICT) == verdicts}
    return sorted(label for label in expected.keys() | got.keys()
                  if expected.get(label) != got.get(label))


def test_every_grid_job_reads_its_known_answer():
    differing = moved(records(), verdicts=False)
    assert not differing, "jobs that differ from grid_answers.json:\n" + "\n".join(differing)


def test_every_verdict_row_reads_its_known_answer():
    differing = moved(verdict_records(), verdicts=True)
    assert not differing, "rows that differ from grid_answers.json:\n" + "\n".join(differing)


def test_rows_render_results_as_plain_data():
    from pseudo.polyring import parse_poly

    # a polynomial keeps its variables, so equal text over other variables differs
    one, wide = parse_poly("del", ("del",)), parse_poly("del", ("del", "lam"))
    assert rendered({(1,): one, (0,): wide}) == (
        ((0,), (("del", "lam"), "del")), ((1,), (("del",), "del")),
    )
    assert rendered([True, None]) == (True, None)
    assert verdict_row(lambda: 1 // 0) == ["ZeroDivisionError", "integer division or modulo by zero"]


def test_residual_batch_mixes_flat_and_obstructed():
    # each of the two flat routes answers yes in at least 20 of the 80
    # cases and no in some, and an abelian extension is associative
    # exactly when the deformation by the same 2-cochain is flat
    rows = verdict_records()
    verdicts = []
    for label, *_ in residual_cases():
        verdicts += [rows[f"{label}: build_extension"][0], rows[f"{label}: deform"][0]]
        assert rows[f"{label}: build_abelian_extension"][0] == rows[f"{label}: deform"][0]
    assert 20 <= sum(verdicts) < len(verdicts)


def test_witness_batch_mixes_found_and_none():
    # some searches find a witness and some do not, some targets lie above
    # the bound plus the structure degree, and every witness found
    # identifies the two data, while not every doubled one does (a zero
    # target's witness is zero, and so is its double)
    rows = verdict_records()
    found, on_witness, on_doubled = [], [], []
    above = 0
    for label, module, target, _, bound in witness_cases():
        above += top_degree(target) > bound + module.structure_degree()
        for search, equivalent in (("find_deformation_witness", "equivalent_deformations"),
                                   ("find_extension_witness", "equivalent_extensions")):
            found.append(rows[f"{label}: {search}"][0])
            if found[-1]:
                on = f"{label}: {search}: {equivalent} on the witness"
                on_witness.append(rows[on][0])
                on_doubled.append(rows[f"{on} doubled"][0])
    assert any(found) and not all(found) and above
    assert all(verdict is True for verdict in on_witness)
    assert False in on_doubled


def test_mat2_twists_assemble_rank_eight_flat_and_obstructed():
    # cocycles on even seeds and obstructed cochains on odd ones, each
    # assembled into an A (+) M of rank 8 whose verdict agrees with deform's
    rows = verdict_records()
    regular = BimoduleStructure.regular(read_algebra("mat2.alg"))
    verdicts = []
    for seed in SEEDS:
        extension, associative = build_abelian_extension(
            AbelianExtensionDatum(regular.algebra, regular, twist_cochain(regular, seed))
        )
        assert extension.rank == 8
        label = f"{VERDICT}mat2 twist seed {seed}"
        assert rows[f"{label}: build_abelian_extension"][0] == associative
        assert rows[f"{label}: deform"][0] == associative
        verdicts.append(associative)
    assert verdicts == [False, True, False, True, False]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_grid.py --write")
    rows = {**records(), **verdict_records()}
    lines = [f"{json.dumps(label)}: {json.dumps(rec)}" for label, rec in sorted(rows.items())]
    ANSWERS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
