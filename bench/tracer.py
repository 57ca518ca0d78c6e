"""Span tracer that wraps the public functions of each jordanalg module.

`Tracer.install` replaces each function named in `LAYER_FUNCTIONS` with a
wrapper in every `jordanalg.*` namespace that binds it (callers use
`from .x import f`, and `invariants` binds `ratlin.rank` as `matrix_rank`);
`uninstall` puts the original objects back.  Each call records one span
[name, item, start, end, cover_end, parent] in memory; the spans are written
once, by `write`, after the timed phase.

Some wrappers also read size and outcome figures from the call's arguments
and return value.  They do so after `end`, and `cover_end` marks where that
reading stopped, so a parent's self time excludes it: a span's self time is
end - start minus the [start, cover_end] intervals of its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYER_FUNCTIONS = (
    "cli.main",
    "catalog.load_catalog",
    "catalog.resolve_all",
    "catalog.verify_catalog",
    "algebra.is_jordan",
    "algebra.find_identity",
    "algebra.is_associative",
    "invariants.fingerprint",
    "invariants.radical",
    "invariants.derivation_dim",
    "invariants.centroid_dim",
    "invariants.power_profile",
    "invariants.annihilator_series",
    "cohomology.cocycle_space",
    "peirce.peirce_single",
    "peirce.eigenspace",
    "polysolve.embeds_b2",
    "polysolve.buchberger",
    "polysolve.is_groebner_basis",
    "ratlin.int_rows_rank",
    "ratlin.kernel",
    "ratlin.rank",
    "ratlin.Subspace.span",
)

NAME, ITEM, START, END, COVER_END, PARENT = range(6)


def _max_int_bits(rows) -> int:
    return max((abs(x).bit_length() for r in rows for x in r), default=0)


def _max_fraction_bits(entries) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries),
        default=0,
    )


def _probe_int_rows_rank(stats, result, rows, ncols):
    stats["int_rows_rank.rows"] += len(rows)
    stats["int_rows_rank.rank"] += result
    stats["int_rows_rank.cells"] += len(rows) * ncols
    stats["int_rows_rank.max_cols"] = max(stats["int_rows_rank.max_cols"], ncols)
    stats["int_rows_rank.max_coeff_bits"] = max(
        stats["int_rows_rank.max_coeff_bits"], _max_int_bits(rows)
    )


def _probe_kernel(stats, result, m):
    stats["kernel.cells"] += m.rows * m.cols
    stats["kernel.max_coeff_bits"] = max(
        stats["kernel.max_coeff_bits"], _max_fraction_bits(m.entries)
    )


def _probe_buchberger(stats, result, system, budget=None):
    stats["buchberger.pairs_reduced"] += result.pairs_reduced
    stats["buchberger.exhausted"] += int(result.exhausted)


PROBES = {
    "ratlin.int_rows_rank": _probe_int_rows_rank,
    "ratlin.kernel": _probe_kernel,
    "polysolve.buchberger": _probe_buchberger,
}
# Spans whose return value is kept, to classify the decision path later.
KEEP_RESULT = {"polysolve.embeds_b2"}


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "jordanalg" or n.startswith("jordanalg."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[int, object] = {}
        self.stats: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results, stats = self.spans, self._stack, self.results, self.stats
        probe = PROBES.get(name)
        keep = name in KEEP_RESULT

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.item, 0.0, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = rec[COVER_END] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(stats, result, *args, **kwargs)
            if keep:
                results[idx] = result
            rec[COVER_END] = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced_as = name
        return wrapper

    def install(self) -> None:
        owners = {name: importlib.import_module(f"jordanalg.{name.partition('.')[0]}")
                  for name in LAYER_FUNCTIONS}
        namespaces = _namespaces()
        for name, owner in owners.items():
            attr = name.partition(".")[2]
            if "." in attr:  # a classmethod: rebind it on its class
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for binding, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, binding, original))
                        setattr(ns, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "item", "start", "end", "cover_end", "parent"]
        with open(path, "w") as f:
            json.dump({**meta, "fields": fields, "spans": self.spans}, f)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[COVER_END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def b2_paths(spans: list[list], results: dict[int, object]) -> dict[str, int]:
    """Count embeds_b2 calls by decision path: witness scan, Buchberger, or
    neither (the nilpotent shortcut)."""
    groebner = set()
    for rec in spans:
        if rec[NAME] == "polysolve.buchberger":
            p = rec[PARENT]
            while p >= 0:
                if spans[p][NAME] == "polysolve.embeds_b2":
                    groebner.add(p)
                p = spans[p][PARENT]
    counts = {"path_nilpotent": 0, "path_witness": 0, "path_groebner": 0}
    for idx, result in results.items():
        if result.witness is not None:
            counts["path_witness"] += 1
        elif idx in groebner:
            counts["path_groebner"] += 1
        else:
            counts["path_nilpotent"] += 1
    return counts


# name -> (unit, better); the order is the order printed.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _fn in LAYER_FUNCTIONS:
    LAYER_METRICS[f"{_fn}.self_ms"] = ("ms/item", "lower")
    LAYER_METRICS[f"{_fn}.calls"] = ("calls/item", "lower")
LAYER_METRICS.update({
    "ratlin.int_rows_rank.rows": ("rows/item", "lower"),
    "ratlin.int_rows_rank.cells": ("cells/item", "lower"),
    "ratlin.int_rows_rank.max_cols": ("cols", "lower"),
    "ratlin.int_rows_rank.max_coeff_bits": ("bits", "lower"),
    "ratlin.int_rows_rank.useful_row_frac": ("rank/rows", "higher"),
    "ratlin.kernel.cells": ("cells/item", "lower"),
    "ratlin.kernel.max_coeff_bits": ("bits", "lower"),
    "polysolve.buchberger.pairs_reduced": ("pairs/item", "lower"),
    "polysolve.buchberger.exhausted": ("1/pass", "lower"),
    "polysolve.embeds_b2.path_nilpotent": ("1/pass", "higher"),
    "polysolve.embeds_b2.path_witness": ("1/pass", "higher"),
    "polysolve.embeds_b2.path_groebner": ("1/pass", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})


def layer_metrics(tracer: Tracer, items: int, passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, except trace.overhead_frac."""
    selfs = self_times(tracer.spans)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for rec, s in zip(tracer.spans, selfs):
        self_ms[rec[NAME]] += s * 1e3
        calls[rec[NAME]] += 1
    out: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        out[f"{fn}.self_ms"] = self_ms[fn] / items
        out[f"{fn}.calls"] = calls[fn] / items
    st = tracer.stats
    out["ratlin.int_rows_rank.rows"] = st["int_rows_rank.rows"] / items
    out["ratlin.int_rows_rank.cells"] = st["int_rows_rank.cells"] / items
    out["ratlin.int_rows_rank.max_cols"] = st["int_rows_rank.max_cols"]
    out["ratlin.int_rows_rank.max_coeff_bits"] = st["int_rows_rank.max_coeff_bits"]
    rows = st["int_rows_rank.rows"]
    out["ratlin.int_rows_rank.useful_row_frac"] = st["int_rows_rank.rank"] / rows if rows else 0.0
    out["ratlin.kernel.cells"] = st["kernel.cells"] / items
    out["ratlin.kernel.max_coeff_bits"] = st["kernel.max_coeff_bits"]
    out["polysolve.buchberger.pairs_reduced"] = st["buchberger.pairs_reduced"] / items
    out["polysolve.buchberger.exhausted"] = st["buchberger.exhausted"] / passes
    for path, n in b2_paths(tracer.spans, tracer.results).items():
        out[f"polysolve.embeds_b2.{path}"] = n / passes
    return out
