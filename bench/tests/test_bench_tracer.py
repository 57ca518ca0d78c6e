import sys

import pytest

import jordanalg
from jordanalg import cli, invariants, ratlin
from jordanalg.algebra import Algebra
from tracer import LAYER_FUNCTIONS, Tracer, layer_metrics, self_times


def _bindings():
    """Every (namespace, name) -> object binding of the jordanalg package."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "jordanalg" or name.startswith("jordanalg.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out[("Subspace", "span")] = ratlin.Subspace.__dict__["span"]
    return out


def _small_algebra():
    # J56 of the catalog: e1 idempotent, n1*n1 = n2, n3 in the half space
    return Algebra.from_products(
        ("e1", "n1", "n2", "n3"),
        {("e1", "e1"): {"e1": 1}, ("n1", "n1"): {"n2": 1}, ("e1", "n1"): {"n1": 1},
         ("e1", "n2"): {"n2": 1}, ("e1", "n3"): {"n3": "1/2"}},
    )


def test_self_time_subtracts_what_children_cover():
    # name, item, start, end, cover_end, parent
    spans = [
        ["a", 0, 0.0, 10.0, 10.0, -1],
        ["b", 0, 1.0, 4.0, 4.5, 0],  # read its arguments until 4.5
        ["c", 0, 5.0, 9.0, 9.0, 0],
        ["d", 0, 6.0, 7.0, 7.0, 2],
        ["a", 1, 11.0, 12.0, 12.0, -1],
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.0, 1.0])


def test_wrappers_bound_while_installed_and_gone_after():
    before = _bindings()
    with Tracer() as tracer:
        assert invariants.matrix_rank.traced_as == "ratlin.rank"
        assert cli.fingerprint.traced_as == "invariants.fingerprint"
        assert jordanalg.kernel.traced_as == "ratlin.kernel"
        assert ratlin.Subspace.__dict__["span"].__func__.traced_as == "ratlin.Subspace.span"
        jordanalg.fingerprint(_small_algebra())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not [k for k, v in after.items() if hasattr(v, "traced_as")]
    names = {rec[0] for rec in tracer.spans}
    assert {"invariants.fingerprint", "cohomology.cocycle_space", "ratlin.int_rows_rank",
            "invariants.derivation_dim", "ratlin.rank", "ratlin.Subspace.span"} <= names


def test_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_bindings()[k] is before[k] for k in before)


def test_span_tree_and_layer_metrics_of_one_fingerprint():
    with Tracer() as tracer:
        jordanalg.fingerprint(_small_algebra())
    spans = tracer.spans
    root = [i for i, rec in enumerate(spans) if rec[5] == -1]
    assert [spans[i][0] for i in root] == ["invariants.fingerprint"]
    cocycle = next(i for i, rec in enumerate(spans) if rec[0] == "cohomology.cocycle_space")
    ranks = [rec for rec in spans if rec[0] == "ratlin.int_rows_rank"]
    assert len(ranks) == 2 and all(rec[5] == cocycle for rec in ranks)
    assert all(rec[2] <= rec[3] <= rec[4] for rec in spans)
    m = layer_metrics(tracer, items=1, passes=1)
    assert m["invariants.fingerprint.calls"] == 1
    assert m["cohomology.cocycle_space.calls"] == 1
    assert m["ratlin.int_rows_rank.max_cols"] == 40  # 10 symmetric pairs x 4
    assert 0 < m["ratlin.int_rows_rank.useful_row_frac"] <= 1
    assert m["polysolve.embeds_b2.calls"] == 0
    # self times partition the root span, less the time spent reading sizes
    total_self = sum(m[f"{fn}.self_ms"] for fn in LAYER_FUNCTIONS)
    reading_ms = sum(rec[4] - rec[3] for rec in spans[1:]) * 1e3
    root_ms = (spans[0][3] - spans[0][2]) * 1e3
    assert total_self + reading_ms == pytest.approx(root_ms, rel=1e-9)


def test_embeds_b2_paths_are_classified():
    nilpotent = Algebra.from_products(("n1", "n2"), {("n1", "n1"): {"n2": 1}})
    with Tracer() as tracer:
        jordanalg.embeds_b2(_small_algebra())  # witness e1, n3
        jordanalg.embeds_b2(nilpotent)
        jordanalg.embeds_b2(Algebra.from_products(("e1",), {("e1", "e1"): {"e1": 1}}))
    m = layer_metrics(tracer, items=3, passes=1)
    assert (m["polysolve.embeds_b2.path_witness"], m["polysolve.embeds_b2.path_nilpotent"],
            m["polysolve.embeds_b2.path_groebner"]) == (1, 1, 1)
    assert m["polysolve.buchberger.exhausted"] == 0
    assert m["polysolve.buchberger.calls"] == pytest.approx(1 / 3)  # one branch, three items
