"""The three benchmark workloads: inputs, items and answers.

A workload is built from a seed during set-up.  It holds a fixed list of
items; each pass runs every item once, in an order drawn from the seed and
the pass number.  Inputs are plain tuples, never `Algebra` objects, so no
cached property of an algebra can carry over from one item to the next:
library items rebuild `Algebra(labels, table)` inside the timed call, and CLI
items load and resolve the catalog themselves inside `cli.main`.

`run` is the timed call.  `answer` turns its result into the JSON value that
is compared with the committed expected answer; it runs outside the item's
latency.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from jordanalg import catalog, cli, invariants, polysolve
from jordanalg.algebra import Algebra, change_basis
from jordanalg.ratlin import Matrix, invert

EMBED_BUDGET = 10000
# Each table appears in this many seeded dense bases per pass, so one run
# averages over more bases and its figures depend less on the seed.
DENSE_BASES_PER_TABLE = 2
# Answers that make up the paper's verdict on the 73 four-dimensional entries.
VERDICT_COMMANDS = ("verify --deep", "fingerprint-all")


@dataclass(frozen=True)
class Item:
    key: str  # unique within the workload
    answer_key: str  # key of the expected answer
    payload: Any  # plain tuples handed to `run`
    verdict: bool  # counts towards certify_s


def catalog_tables() -> list[tuple[str, tuple, tuple]]:
    """(name, labels, table) of the bundled catalog, in catalog order."""
    entries = catalog.catalog_order(catalog.load_catalog())
    env = catalog.resolve_all(entries)
    return [(e.name, env[e.name].labels, env[e.name].table) for e in entries]


def _e1_is_table_idempotent(labels: tuple, table: tuple) -> bool:
    if "e1" not in labels:
        return False
    i = labels.index("e1")
    return all(x == (1 if k == i else 0) for k, x in enumerate(table[i][i]))


def dense_matrix(n: int, rng: random.Random) -> Matrix:
    """Invertible integer matrix with entries in [-3, 3]."""
    while True:
        m = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if invert(m) is not None:
            return m


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[Item] = self._build(seed)

    def _build(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def pass_order(self, pass_index: int) -> list[Item]:
        order = list(self.items)
        random.Random(f"{self.name}:{self.seed}:{pass_index}").shuffle(order)
        return order

    def run(self, payload):
        raise NotImplementedError

    def answer(self, payload, result):
        return result


class CatalogWorkload(Workload):
    """CLI traffic through in-process `cli.main` on the bundled catalog."""

    name = "catalog"

    def _build(self, seed: int) -> list[Item]:
        tables = catalog_tables()
        argvs = [tuple(c.split()) for c in VERDICT_COMMANDS]
        for name, _, _ in tables:
            argvs += [("invariants", name), ("h2", name), ("fingerprint", name)]
        argvs += [("peirce", name, "e1") for name, labels, table in tables
                  if _e1_is_table_idempotent(labels, table)]
        return [Item(" ".join(a), " ".join(a), a, " ".join(a) in VERDICT_COMMANDS)
                for a in argvs]

    def run(self, payload):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(payload))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def fingerprint_answer(fp) -> dict:
    return {"key": repr(fp.key()), "render": fp.render()}


class DenseWorkload(Workload):
    """`invariants.fingerprint` on each table in seeded dense bases."""

    name = "dense"

    def _build(self, seed: int) -> list[Item]:
        rng = random.Random(f"dense-bases:{seed}")
        items = []
        for name, labels, table in catalog_tables():
            a = Algebra(labels, table)
            for k in range(DENSE_BASES_PER_TABLE):
                b = change_basis(a, dense_matrix(a.dim, rng))
                items.append(Item(f"{name}#{k}", name, (b.labels, b.table), a.dim == 4))
        return items

    def run(self, payload):
        return invariants.fingerprint(Algebra(*payload))

    def answer(self, payload, result):
        return fingerprint_answer(result)


class EmbedWorkload(Workload):
    """`polysolve.embeds_b2` on each table in its catalog basis."""

    name = "embed"

    def _build(self, seed: int) -> list[Item]:
        return [Item(name, name, (labels, table), len(labels) == 4)
                for name, labels, table in catalog_tables()]

    def run(self, payload):
        return polysolve.embeds_b2(Algebra(*payload), budget=EMBED_BUDGET)

    def answer(self, payload, result):
        if result.witness is not None and not polysolve.check_b2_witness(
            Algebra(*payload), *result.witness
        ):
            return "bad witness"
        return result.answer


WORKLOADS = {w.name: w for w in (CatalogWorkload, DenseWorkload, EmbedWorkload)}
