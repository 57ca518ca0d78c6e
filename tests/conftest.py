import random
from fractions import Fraction

import pytest

from jordanalg import catalog
from jordanalg.algebra import change_basis, direct_sum, matrix_algebra, plus_algebra
from jordanalg.catalog import catalog_order, load_catalog, resolve_all
from jordanalg.ratlin import Matrix, invert


@pytest.fixture(scope="session")
def entries():
    return catalog_order(load_catalog())


@pytest.fixture(scope="session")
def env(entries):
    return resolve_all(entries)


@pytest.fixture
def cleared_parse_memo():
    """Empties the memo of parsed catalog texts before and after the test, so
    that a test which counts or patches the parser sees every file parsed,
    whichever test ran before it."""
    catalog._parse_text.cache_clear()
    yield
    catalog._parse_text.cache_clear()


@pytest.fixture(scope="session")
def dense_env(env):
    """One seeded dense basis of each catalog table: name -> (algebra, p),
    the algebra being `change_basis(env[name], p)`."""
    rng = seeded_rng("dense-env")
    out = {}
    for name, a in env.items():
        p = random_invertible_matrix(a.dim, rng, dense=True)
        out[name] = (change_basis(a, p), p)
    return out


@pytest.fixture(scope="session")
def large_algebras(env):
    """Tables of dimension 7 to 9: J56+T5, J56+J59 and the plus algebra of
    the 3x3 matrices."""
    return {"J56+T5": direct_sum(env["J56"], env["T5"]),
            "J56+J59": direct_sum(env["J56"], env["J59"]),
            "M3+": plus_algebra(matrix_algebra(3))}


def random_invertible_matrix(n, rng, dense=False):
    """Random invertible rational matrix.

    Default form: permutation with +-1/2-ish scaling composed with two
    transvections (invertible by construction, keeps tables manageable).
    Dense form: uniform small integer entries, retried until invertible.
    """
    if dense:
        while True:
            m = Matrix.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            )
            if invert(m) is not None:
                return m
    rows = [[Fraction(0)] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i, p in enumerate(perm):
        rows[i][p] = Fraction(rng.choice([1, -1, 2, 1, 1]))
    if n >= 2:
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice([1, -1, 2, -2, 1]), rng.choice([1, 2]))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def seeded_rng(tag: str) -> random.Random:
    return random.Random(f"jordanalg:{tag}")
