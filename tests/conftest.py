import os
import pathlib
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from pseudo.cfmodule import BimoduleStructure
from pseudo.classical import current_algebra, matrix_algebra
from pseudo.conformal import ConformalAlgebra, free_rank_one
from pseudo.formats import parse_fd_algebra
from pseudo.polyring import Poly

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("exact")

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, so a
    child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(INPUTS.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fd_algebra(name: str):
    """The finite-dimensional algebra in inputs/<name>.fda."""
    return parse_fd_algebra((INPUTS / f"{name}.fda").read_text(encoding="utf-8"))


def unit_cochain(index, i: int):
    """Basis cochain i of a CochainIndex."""
    return index.reconstruct([int(j == i) for j in range(index.dimension)])


def check_h0_representative(
    algebra: ConformalAlgebra, module: BimoduleStructure, coords: Sequence
) -> list[Poly]:
    """Residuals a_{-del} u - u_0 a per generator, computed directly.

    A representative of a degree-0 class is valid exactly when every
    residual coordinate is zero.  This recomputes the defining identity
    from the action tables rather than reusing the kernel arithmetic.
    """
    dl = Poly.var(("del",), "del")
    residuals = []
    for i in range(algebra.rank):
        vec = [Poly.zero(("del",)) for _ in range(module.rank)]
        for j, c in enumerate(coords):
            c = Fraction(c)
            if not c:
                continue
            for k, l_ijk in module.left_entries(i, j):
                vec[k] = vec[k] + c * l_ijk.substitute({"lam": -dl, "del": dl})
            for k, r_jik in module.right_entries(j, i):
                vec[k] = vec[k] - c * r_jik.substitute(
                    {"lam": Poly.zero(("del",)), "del": dl}
                )
        residuals.extend(vec)
    return residuals


@pytest.fixture(scope="session")
def inputs_dir() -> pathlib.Path:
    return INPUTS


@pytest.fixture(scope="session")
def cur1():
    return free_rank_one()


@pytest.fixture(scope="session")
def mat2():
    return current_algebra(matrix_algebra(2))


@pytest.fixture(scope="session")
def cur1_regular(cur1):
    return BimoduleStructure.regular(cur1)


@pytest.fixture(scope="session")
def mat2_regular(mat2):
    return BimoduleStructure.regular(mat2)


def rationals(max_num: int = 4, max_den: int = 3) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polys(
    variables: tuple[str, ...], max_degree: int = 3, max_terms: int = 4
) -> st.SearchStrategy:
    """Random sparse polynomials over a fixed variable tuple."""
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in variables]
    )
    term = st.tuples(exponents, rationals())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: _poly_from_pairs(variables, pairs)
    )


def _poly_from_pairs(variables, pairs) -> Poly:
    total = Poly.zero(variables)
    for exps, coeff in pairs:
        total = total + Poly.monomial(variables, exps, coeff)
    return total
