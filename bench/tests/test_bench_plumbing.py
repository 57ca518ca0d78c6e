import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from jordanalg.algebra import Algebra
from workloads import WORKLOADS, CatalogWorkload, DenseWorkload, EmbedWorkload

ROOT = Path(__file__).resolve().parents[2]
CACHED = ("_sparse", "_int_structure", "_basis_traces", "_jordan_ok")


def _subset(workload, keys):
    workload.items = [it for it in workload.items if it.key in keys]
    assert len(workload.items) == len(keys)
    return workload


def _filled_algebras():
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, Algebra) and any(k in o.__dict__ for k in CACHED)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_order(name):
    a, b = WORKLOADS[name](7), WORKLOADS[name](7)
    for p in range(2):
        assert [(it.key, it.payload) for it in a.pass_order(p)] == \
               [(it.key, it.payload) for it in b.pass_order(p)]
    assert [it.key for it in a.pass_order(0)] != [it.key for it in a.pass_order(1)]
    assert [it.key for it in a.pass_order(0)] != [it.key for it in WORKLOADS[name](8).pass_order(0)]


def test_another_seed_gives_other_dense_bases():
    a, b = DenseWorkload(1), DenseWorkload(2)
    assert [it.key for it in a.items] == [it.key for it in b.items]
    differ = sum(x.payload != y.payload for x, y in zip(a.items, b.items))
    assert differ >= len(a.items) - 10  # one-dimensional tables have few bases


def test_item_counts():
    assert len(CatalogWorkload(0).items) == 336
    assert len(DenseWorkload(0).items) == 176
    assert len(EmbedWorkload(0).items) == 88


def test_filled_algebra_is_detected():
    a = Algebra.from_products(("e1",), {("e1", "e1"): {"e1": 1}})
    a.mul(a.basis_vector(0), a.basis_vector(0))
    assert a in _filled_algebras()


@pytest.mark.parametrize("name, keys", [
    ("catalog", {"invariants J56", "h2 J56", "peirce J56 e1", "fingerprint J1"}),
    ("dense", {"J56#0", "J56#1", "T5#0"}),
    ("embed", {"J56", "J1", "J73"}),
])
def test_no_cached_property_survives_into_an_item(name, keys):
    wl = _subset(WORKLOADS[name](3), keys)
    run = wl.run
    starts = []

    def checked_run(payload):
        starts.append(_filled_algebras())
        return run(payload)

    wl.run = checked_run
    out = worker.timed_phase(wl, worker.load_expected(name), 0, 60, passes=2)
    assert out["failed"] == 0 and out["attempted"] == 2 * len(keys)
    assert starts == [[]] * len(starts)


@pytest.mark.parametrize("name, key, corrupt", [
    ("embed", "J56", "no"),
    ("catalog", "h2 J56", {"exit": 0, "stdout": "z2=15 b2=12 h2=4\n", "stderr": ""}),
])
def test_a_wrong_expected_answer_fails_its_item(name, key, corrupt):
    wl = _subset(WORKLOADS[name](1), {key, "J1" if name == "embed" else "h2 J1"})
    expected = worker.load_expected(name)
    out = worker.timed_phase(wl, expected, 0, 60, passes=1)
    assert out["failed"] == 0
    expected[key] = corrupt
    out = worker.timed_phase(wl, expected, 0, 60, passes=2)
    assert (out["attempted"], out["failed"]) == (4, 2)


def test_an_item_over_its_time_limit_fails_and_the_run_goes_on(monkeypatch):
    class Spin(EmbedWorkload):
        def run(self, payload):
            if payload[0] == ("e",):  # F1
                while True:
                    pass
            return super().run(payload)

    monkeypatch.setattr(worker, "ITEM_LIMIT_S", 0.3)
    wl = _subset(Spin(1), {"F1", "F2", "J56"})
    out = worker.timed_phase(wl, worker.load_expected("embed"), 0, 60, passes=1)
    assert (out["attempted"], out["failed"]) == (3, 1)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "embed", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
           {m["name"]: m["unit"] for m in spec[section]}
    if trace == "1":
        paths = [result["metrics"][f"polysolve.embeds_b2.path_{p}"]["value"]
                 for p in ("nilpotent", "witness", "groebner")]
        assert paths == [17, 31, 40]
        assert result["metrics"]["cohomology.cocycle_space.calls"]["value"] == 0
        assert result["metrics"]["cli.main.calls"]["value"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "embed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
