"""Generated Jordan algebras whose invariants are known in closed form.

Every generator is deterministic; `dense_basis` draws its basis change from
a stdlib `random.Random` seeded by a tag, so each case is reproducible.
"""

from fractions import Fraction

from jordanalg.algebra import Algebra, change_basis
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


def dense_basis(a, tag):
    """(change_basis(a, p), p) for a dense invertible p drawn from the seed
    `tag`."""
    p = random_invertible_matrix(a.dim, seeded_rng(tag), dense=True)
    return change_basis(a, p), p
