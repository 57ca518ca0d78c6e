"""Generated Jordan algebras whose invariants are known in closed form.

Every generator is deterministic; `dense_basis` draws its basis change from
a stdlib `random.Random` seeded by a tag, so each case is reproducible.
"""

from fractions import Fraction

from jordanalg.algebra import Algebra, change_basis, direct_sum
from conftest import random_invertible_matrix, seeded_rng


def spin_factor(m, form=None):
    """J(V, f) = F1 + V for dim V = m and the symmetric bilinear form f
    (an m x m matrix, the identity by default): the unit e and
    v_i v_j = f(v_i, v_j) e.

    For nondegenerate f and m >= 2 it is simple, with Der J = so(V, f) of
    dim m(m-1)/2, centroid F and H2 = 0; in general rad J = rad f.
    """
    if form is None:
        form = [[int(i == j) for j in range(m)] for i in range(m)]
    if len(form) != m or any(len(row) != m for row in form):
        raise ValueError("the form must be an m x m matrix")
    if any(form[i][j] != form[j][i] for i in range(m) for j in range(m)):
        raise ValueError("the form must be symmetric")
    labels = ("e",) + tuple(f"v{i + 1}" for i in range(m))
    products = {("e", "e"): {"e": 1}}
    for i in range(m):
        products[("e", f"v{i + 1}")] = {f"v{i + 1}": 1}
        for j in range(i, m):
            if form[i][j]:
                products[(f"v{i + 1}", f"v{j + 1}")] = {"e": Fraction(form[i][j])}
    return Algebra.from_products(labels, products)


def truncated_polynomial(m):
    """x Q[x] / (x^(m+1)), basis x1..xm with xi xj = x(i+j), zero past m:
    associative, hence Jordan, and nilpotent, so rad J = J; Ann J is the
    line of xm and the nilindex is m + 1."""
    labels = tuple(f"x{i}" for i in range(1, m + 1))
    products = {(f"x{i}", f"x{j}"): {f"x{i + j}": 1}
                for i in range(1, m + 1) for j in range(i, m + 1 - i)}
    return Algebra.from_products(labels, products)


def field_sum(n):
    """F1 + N: the field Q as a direct summand next to N.  Under the direct
    sum the radical and annihilator dimensions add, and F1 has neither, so
    for nilpotent N both are those of N, and J / rad J = F1.  Its companion
    family is `algebra.unitalization(N)`: rad J = N, J / rad J = F1, and
    the unit leaves Ann J = 0."""
    return direct_sum(Algebra(("f",), (((Fraction(1),),),)), n)


def dense_basis(a, tag):
    """(change_basis(a, p), p) for a dense invertible p drawn from the seed
    `tag`."""
    p = random_invertible_matrix(a.dim, seeded_rng(tag), dense=True)
    return change_basis(a, p), p
