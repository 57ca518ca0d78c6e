import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from jordanalg import catalog as cat
from jordanalg import cli
from jordanalg.algebra import change_basis
from jordanalg.cli import main
from jordanalg.ratlin import Matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_default_catalog(capsys, tmp_path):
    summary = tmp_path / "summary.txt"
    code, out, _ = run(capsys, "verify", "--summary", str(summary))
    assert code == 0
    assert "88 Jordan-identity PASS" in out
    lines = summary.read_text().splitlines()
    assert len(lines) == 88
    assert lines[0].startswith("F1 ")


def test_verify_missing_directory(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--dir", str(tmp_path / "nope"))
    assert code == 2
    assert "error" in err


def test_verify_empty_directory(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--dir", str(tmp_path))
    assert code == 2


def test_invariants_named_algebra(capsys):
    code, out, _ = run(capsys, "invariants", "J33")
    assert code == 0
    assert "der      12" in out
    assert "ann      0" in out


def test_invariants_j73(capsys):
    code, out, _ = run(capsys, "invariants", "J73")
    assert code == 0
    assert "der      16" in out and "ann      4" in out


def test_invariants_unknown_name(capsys):
    code, _, err = run(capsys, "invariants", "J99")
    assert code == 2


def test_invariants_f1(capsys):
    code, out, _ = run(capsys, "invariants", "F1")
    assert code == 0
    assert "der      0" in out and "ann      0" in out
    assert "dims 1,1,1,1" in out


def test_verify_deep(capsys):
    code, out, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert "deep checks (h2 / b2 / radical type): all PASS" in out
    assert "H2(J59)=0" in out
    assert "embed-b2(J55)=no" in out


def test_verify_deep_computes_h2_and_b2_once(capsys, monkeypatch, entries, env):
    # each qualifying entry gets one h2_dims and one embeds_b2 call;
    # the calls inside fingerprint belong to the radical-type check
    from jordanalg import catalog, cli, invariants, polysolve

    calls = {"h2_dims": Counter(), "embeds_b2": Counter()}
    name_of = {env[e.name].table: e.name for e in entries}

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "fingerprint":
                calls[name][name_of.get(a.table)] += 1
            return original(a, *args, **kwargs)

        return wrapper

    for module, name in ((invariants, "h2_dims"), (polysolve, "embeds_b2")):
        wrapper = counting(name, getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(catalog, name, wrapper)
    code, out, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert calls["h2_dims"] == Counter(e.name for e in entries if e.expected.h2)
    assert calls["embeds_b2"] == Counter(e.name for e in entries if e.expected.b2)
    assert out.count("H2(") == sum(calls["h2_dims"].values())


def test_verify_deep_scans_each_algebra_once(capsys, monkeypatch):
    # the Jordan scan is cached on the algebra, so the checks that each
    # require a Jordan algebra share one scan of it
    from jordanalg import algebra

    scanned = []
    original = algebra._int_defect_scan
    monkeypatch.setattr(algebra, "_int_defect_scan",
                        lambda a: scanned.append(a) or original(a))
    code, _, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert len(scanned) == len({id(a) for a in scanned}) == 100


def test_verify_deep_echelons_delta1_once_per_algebra(capsys, monkeypatch):
    # the delta^1 echelon is kept on the algebra, so the aut column's
    # derivation_dim and the h2 check's h2_dims share one echelon
    from jordanalg import cohomology

    built = []
    original = cohomology.coboundary_pair_rows
    monkeypatch.setattr(cohomology, "coboundary_pair_rows",
                        lambda a: built.append(a) or original(a))
    code, _, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert len(built) == len({id(a) for a in built}) == 124


def test_invariants_and_verify_read_the_adapted_table(capsys, tmp_path, env, dense_env,
                                                      monkeypatch):
    # every line `invariants` prints and every column `verify` recomputes
    # is an isomorphism invariant, read on the adapted table: a dense basis
    # prints what the given one prints, and where a sparser table exists
    # no delta^1 row is written on the dense constants
    from jordanalg import cohomology
    from jordanalg.invariants import _sparser_table
    from gen import dense_basis, truncated_polynomial

    t10 = truncated_polynomial(10)
    cases = {name: (b, env[name]) for name, (b, _) in dense_env.items()}
    cases["T10"] = (dense_basis(t10, "dense-truncated-10")[0], t10)
    sparser = {name: b._int_structure for name, (b, _) in cases.items()
               if _sparser_table(b) is not None}
    assert len(sparser) > 80
    seen = []
    original = cohomology.coboundary_pair_rows
    monkeypatch.setattr(cohomology, "coboundary_pair_rows",
                        lambda a: seen.append(a._int_structure) or original(a))
    printed = {}
    for basis, i in (("dense", 0), ("given", 1)):
        for name, tables in cases.items():
            path = tmp_path / f"{name}-{basis}.alg"
            path.write_text(cat.serialize_entry(name, tables[i]))
            code, printed[basis, name], _ = run(capsys, "invariants", str(path))
            assert code == 0, (basis, name)
        d = write_tables(tmp_path / basis, **{name: t[i] for name, t in cases.items()})
        code, printed[basis], _ = run(capsys, "verify", "--dir", d)
        assert code == 0, basis
    for name in cases:
        assert printed["dense", name] == printed["given", name], name
    assert printed["dense"] == printed["given"]
    assert "T10: PASS  [aut=10 ann=1 sq=9]" in printed["dense"].splitlines()
    assert [name for name, s in sparser.items() if s in seen] == []


def test_verify_deep_non_jordan_entry(capsys, tmp_path):
    (tmp_path / "bad.alg").write_text(
        "algebra Bad\n  dim 4\n  basis e1 n1 n2 n3\n  e1*e1 = e1\n"
        "  e1*n1 = 1/2 n1\n  e1*n3 = 1/2 n3\n  n1*n1 = n2\n  n1*n2 = n3\n"
        "  expect h2 zero\n  expect b2 yes\nend\n"
    )
    code, out, err = run(capsys, "verify", "--deep", "--dir", str(tmp_path))
    assert code == 1 and err == ""
    assert "Bad: JORDAN FAIL" in out
    assert "H2(" not in out and "embed-b2(" not in out


# Records that the recomputation refutes: J55 has h2 = 2, holds no B2 and
# its radical is not B3; J56 is not nilpotent, has h2 = 3 and holds B2; J59
# has h2 = 0; J70 has nilpotency type (3,1).
WRONG_RECORDS = (
    "algebra W55 = J55\n  expect h2 zero\n  expect b2 yes\n  expect radical B3\nend\n"
    "algebra W56 = J56\n  expect flags nilpotent\n  expect niltype (1)\n"
    "  expect h2 7\n  expect b2 no\nend\n"
    "algebra W59 = J59\n  expect h2 nonzero\nend\n"
    "algebra N70 = J70\n  expect niltype (1)\nend\n"
)


def test_verify_reports_every_refuted_record(capsys, tmp_path):
    for path in cat.data_dir().glob("*.alg"):
        shutil.copy(path, tmp_path)
    (tmp_path / "wrong.alg").write_text(WRONG_RECORDS)
    summary = tmp_path / "summary.txt"
    code, out, err = run(capsys, "verify", "--deep", "--dir", str(tmp_path),
                         "--summary", str(summary))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    for line in ("W55: DEEP FAIL  [aut=4 ann=0 sq=4]",
                 "W56: 2 invariant mismatch(es); DEEP FAIL  [aut=4 ann=0 sq=4]",
                 "W59: DEEP FAIL  [aut=4 ann=0 sq=4]",
                 "  W56: flag nilpotent: not confirmed by computation",
                 "  W56: niltype: algebra is not nilpotent"):
        assert line in lines, line
    failures = lines[lines.index("DEEP CHECK FAILURES:") + 1:]
    assert failures[:failures.index("")] == [
        "  W55: h2: expected 0, computed 2",
        "  W55: b2: expected yes, computed no",
        "  W55: radical: fingerprint differs from B3",
        "  W56: h2: expected 7, computed 3",
        "  W56: b2: expected no, computed yes",
        "  W59: h2: expected nonzero, computed 0",
    ]
    assert summary.read_text().splitlines()[-4:] == [
        "W55 FATAL aut=4 ann=0 sq=4", "W56 FATAL aut=4 ann=0 sq=4",
        "W59 FATAL aut=4 ann=0 sq=4", "N70 ERRATUM aut=7 ann=1 sq=1"]
    # without --deep only the flag and niltype records are checked, and
    # they are errata, not failures; a niltype is written as the catalog
    # writes it
    code, out, err = run(capsys, "verify", "--dir", str(tmp_path), "--summary", str(summary))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "DEEP" not in out and "  W56: niltype: algebra is not nilpotent" in lines
    assert "  N70: niltype: recorded (1), computed (3,1)" in lines
    assert summary.read_text().splitlines()[-4:] == [
        "W55 PASS aut=4 ann=0 sq=4", "W56 ERRATUM aut=4 ann=0 sq=4",
        "W59 PASS aut=4 ann=0 sq=4", "N70 ERRATUM aut=7 ann=1 sq=1"]


def write_tables(path, **tables):
    """A catalog directory at `path` of one file holding `tables` by name."""
    path.mkdir()
    (path / "t.alg").write_text("".join(cat.serialize_entry(name, a)
                                        for name, a in tables.items()))
    return str(path)


def test_fingerprint_all_reports_a_collision(capsys, tmp_path, env):
    # X55 is J55 in a dense basis: the two tie on every field, B2 included
    p = Matrix.from_rows([[2, -1, 3, 1], [1, 3, -2, 0], [-3, 1, 1, 2], [1, 2, 3, -1]])
    d = write_tables(tmp_path / "c", J55=env["J55"], X55=change_basis(env["J55"], p),
                     J56=env["J56"])
    code, out, err = run(capsys, "fingerprint-all", "--dir", d)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["J55", "J56", "X55"]
    assert lines[0].endswith(" b2=no") and lines[2].endswith(" b2=no")
    assert lines[1].endswith(" b2=-")  # J56 ties with nothing
    assert lines[3:] == ["", "COLLISION: J55 and X55 share a fingerprint",
                         "3 fingerprints, pairwise distinct: NO"]


def test_fingerprint_all_settles_a_tie_with_b2_only_when_decided(capsys, tmp_path, env,
                                                                 monkeypatch):
    # J55 and J56 differ only in h2; with h2 hidden they tie, and B2 (no
    # against yes) tells them apart
    d = write_tables(tmp_path / "t", J55=env["J55"], J56=env["J56"])
    real = cli.fingerprint
    monkeypatch.setattr(cli, "fingerprint", lambda a: replace(real(a), dim_h2=0))
    code, out, err = run(capsys, "fingerprint-all", "--dir", d)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].endswith(" h2=0 rad[dim=3 lcs=3,1,0,0 type=(2,1) ann=2 der=5 assoc=y]"
                             " ss=(1,0,y) b2=no")
    assert lines[1].endswith(" b2=yes") and lines[1].split()[1:-1] == lines[0].split()[1:-1]
    assert lines[2:] == ["", "2 fingerprints, pairwise distinct: yes"]
    # an inconclusive B2 answer must not count as a distinction
    monkeypatch.setattr(cli, "embeds_b2",
                        lambda a, budget: SimpleNamespace(answer="inconclusive"))
    code, out, err = run(capsys, "fingerprint-all", "--dir", d)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].endswith(" b2=-") and lines[1].endswith(" b2=-")
    assert lines[2:] == ["", "COLLISION: J55 and J56 share a fingerprint",
                         "2 fingerprints, pairwise distinct: NO"]


NON_JORDAN_TABLE = (
    "algebra Bad\n  dim 4\n  basis e1 n1 n2 n3\n  e1*e1 = e1\n"
    "  e1*n1 = 1/2 n1\n  e1*n3 = 1/2 n3\n  n1*n1 = n2\n  n1*n2 = n3\nend\n"
)


def test_name_commands_on_non_jordan_file(capsys, tmp_path):
    # every subcommand taking a NAME reports a non-Jordan table as an error
    # line and exit 1 (an uncaught exception would propagate out of main)
    bad = tmp_path / "bad.alg"
    bad.write_text(NON_JORDAN_TABLE)
    argvs = [
        ("invariants", str(bad)),
        ("fingerprint", str(bad)),
        ("fingerprint", "--deep", str(bad)),
        ("distinguish", str(bad), "J1"),
        ("distinguish", "J1", str(bad)),
        ("peirce", str(bad), "e1"),
        ("h2", str(bad)),
        ("embed-b2", str(bad)),
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "Jordan algebra" in err, argv
    code, out, err = run(capsys, "show", str(bad))
    assert code == 0 and err == "" and out.startswith("algebra Bad\n")


def test_dir_catalog_resolves_sums_in_file_order(capsys, tmp_path):
    # B9 sorts before X1 but names it, and the file defines X1 first: the
    # sum is checked and resolved in file order, as `show FILE` does, and
    # `verify` still prints its lines sorted
    order = tmp_path / "order.alg"
    order.write_text("algebra X1\n  dim 1\n  basis x\n  x*x = x\nend\n"
                     "algebra B9 = X1 + X1\nend\n")
    code, out, err = run(capsys, "verify", "--dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert [line.split(":")[0] for line in out.splitlines()[:2]] == ["B9", "X1"]
    code, out, err = run(capsys, "show", "B9", "--dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "show", str(order))
    assert out.startswith("algebra B9\n  dim 2\n  basis x x_2\n")
    code, out, err = run(capsys, "fingerprint-all", "--dir", str(tmp_path))
    assert (code, err) == (0, "") and out.endswith("0 fingerprints, pairwise distinct: yes\n")


def test_a_nested_sum_shows_distinct_labels_and_reads_back(capsys, tmp_path):
    # Q = P + F1 with P = F1 + F1: the repeat of e is e_3, not a second e_2,
    # so `show` serializes it and the shown text keeps its fingerprint
    nested = tmp_path / "nested.alg"
    nested.write_text("algebra P = F1 + F1\nend\nalgebra Q = P + F1\nend\n")
    code, out, err = run(capsys, "show", str(nested))
    assert (code, err) == (0, "")
    assert out.startswith("algebra Q\n  dim 3\n  basis e e_2 e_3\n")
    shown = tmp_path / "shown.alg"
    shown.write_text(out)
    fingerprints = [run(capsys, "fingerprint", str(f))[1].split(" ", 1)[1] for f in (nested, shown)]
    assert fingerprints[0] == fingerprints[1]
    code, out, err = run(capsys, "peirce", str(nested), "e_3")
    assert (code, err) == (0, "") and "J_1: dim 1, span {e_3}" in out


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_pipe_is_one_error_line(capsys, monkeypatch):
    for argv in (["invariants", "B3"], ["verify"], ["fingerprint-all"]):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(argv)
        monkeypatch.undo()
        assert code == 2, argv
        assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_a_closed_pipe_leaves_no_traceback_at_exit(tmp_path):
    # the reading end is closed before the command starts, so its first
    # write or flush meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "jordanalg", "invariants", "B3"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_verify_deep_unknown_radical_name(capsys, tmp_path):
    (tmp_path / "mine.alg").write_text(
        "algebra B2\n  dim 2\n  basis e1 n1\n  e1*e1 = e1\n  e1*n1 = 1/2 n1\n"
        "  expect radical NOPE\nend\n"
    )
    code, out, err = run(capsys, "verify", "--dir", str(tmp_path))
    assert code == 0 and "B2: PASS" in out
    code, out, err = run(capsys, "verify", "--deep", "--dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == "error: B2: expect radical: unknown summand 'NOPE'\n"


NOT_UTF8 = b"algebra Bad\n  dim 1\n  basis e\xff\nend\n"


def test_io_errors_are_usage_errors(capsys, tmp_path):
    # unreadable inputs and unwritable outputs print one error line and
    # exit 2 instead of raising out of main
    (tmp_path / "bad.alg").write_bytes(NOT_UTF8)
    (tmp_path / "dir").mkdir()
    (tmp_path / "cat").mkdir()
    (tmp_path / "cat" / "bad.alg").write_bytes(NOT_UTF8)
    argvs = [
        ("verify", "--summary", str(tmp_path / "missing" / "x.txt")),
        ("h2", str(tmp_path / "dir")),
        ("h2", str(tmp_path / "bad.alg")),
        ("invariants", str(tmp_path / "bad.alg")),
        ("verify", "--dir", str(tmp_path / "cat")),
        ("show", "J1", "--dir", str(tmp_path / "cat")),
    ]
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: cannot ") and err.count("\n") == 1, argv
        assert "Traceback" not in err, argv


def test_invariants_from_file(capsys, tmp_path):
    f = tmp_path / "mine.alg"
    f.write_text("algebra Mine = B2 + B3\nend\n")
    code, out, _ = run(capsys, "invariants", str(f))
    assert code == 0
    assert "dim      4" in out


def test_fingerprint_line(capsys):
    code, out, _ = run(capsys, "fingerprint", "J59")
    assert code == 0
    assert out.startswith("J59 dim=4") and "h2=0" in out


def test_distinguish_examples(capsys):
    code, out, _ = run(capsys, "distinguish", "J55", "J56")
    assert code == 0 and out.strip() == "b2_embeds: no vs yes"
    code, out, _ = run(capsys, "distinguish", "J58", "J60")
    assert code == 0 and out.strip() == "rad_record.dim_ann: 2 vs 1"
    code, out, _ = run(capsys, "distinguish", "J1", "J1")
    assert code == 0 and "INDISTINGUISHABLE" in out


def test_distinguish_fingerprints_each_algebra_once(capsys, monkeypatch):
    # J55 and J56 tie up to b2_embeds, which is attached to the two
    # fingerprints already built
    from jordanalg import cli

    built = []
    original = cli.fingerprint
    monkeypatch.setattr(cli, "fingerprint",
                        lambda *args, **kwargs: built.append(args) or original(*args, **kwargs))
    code, out, _ = run(capsys, "distinguish", "J55", "J56")
    assert (code, out) == (0, "b2_embeds: no vs yes\n")
    assert len(built) == 2


def test_peirce_b2(capsys):
    code, out, _ = run(capsys, "peirce", "B2", "e1")
    assert code == 0
    assert "J_1/2: dim 1, span {n1}" in out


def test_peirce_family_idempotent(capsys):
    code, out, _ = run(capsys, "peirce", "J55", "e1 - n2 + n3")
    assert code == 0
    assert "rules: all confirmed" in out


def test_peirce_unknown_label(capsys):
    code, _, err = run(capsys, "peirce", "J3", "e9")
    assert code == 2


def test_peirce_non_idempotent(capsys):
    code, out, _ = run(capsys, "peirce", "J55", "n1")
    assert code == 1
    assert "not idempotent" in out


def test_h2_command(capsys):
    code, out, _ = run(capsys, "h2", "J59")
    assert code == 0 and out.strip() == "z2=12 b2=12 h2=0"


def test_embed_b2_command(capsys):
    code, out, _ = run(capsys, "embed-b2", "J56")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "embed-b2", "J55")
    assert code == 0 and out.strip() == "no"


def test_embed_b2_budget_exhaustion_is_inconclusive(capsys):
    # J55 has no rational witness, so a zero budget starves every branch
    code, out, _ = run(capsys, "embed-b2", "J55", "--budget", "0")
    assert code == 0 and out.strip() == "inconclusive"


@pytest.mark.parametrize("argv", [
    ("verify", "--deep"), ("fingerprint", "J55", "--deep"), ("fingerprint-all",),
    ("distinguish", "J55", "J56"), ("embed-b2", "J55"),
])
def test_a_negative_budget_is_a_usage_error(capsys, argv):
    # every command that takes --budget refuses a negative one, or one that
    # is not an integer, before any work, naming the value; 0 is a budget
    for value in ("-3", "-1", "x"):
        code, out, err = run(capsys, *argv, "--budget", value)
        assert (code, out) == (2, ""), (argv, value)
        assert err.endswith(f"error: argument --budget: not a non-negative integer: '{value}'\n")
        assert err.startswith(f"usage: jordanalg {argv[0]} ")


def test_inconclusive_embed_b2_names_the_chart(capsys):
    # chart n2 is the one J55 needs S-pairs for; the other charts are
    # inconsistent before the first S-pair
    code, out, err = run(capsys, "embed-b2", "J55", "--budget", "0")
    assert code == 0 and out == "inconclusive\n"
    assert err == "chart y[n2] = 1: stopped by the S-pair budget after 0 S-pair reductions\n"
    code, out, err = run(capsys, "embed-b2", "J55")
    assert (code, out, err) == (0, "no\n", "")


def test_fingerprint_deep_includes_embedding(capsys):
    code, out, _ = run(capsys, "fingerprint", "J56", "--deep")
    assert code == 0 and "b2=yes" in out


def test_show_round_trips(capsys):
    code, out, _ = run(capsys, "show", "J56")
    assert code == 0
    from jordanalg.catalog import parse_catalog, resolve

    (entry,) = parse_catalog(out)
    a = resolve(entry, {})
    assert a.dim == 4


def test_fingerprint_all(capsys):
    code, out, _ = run(capsys, "fingerprint-all")
    assert code == 0
    assert "73 fingerprints, pairwise distinct: yes" in out
    assert sum(1 for line in out.splitlines() if line.startswith("J")) == 73


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


RECORDED_ANSWERS = Path(__file__).resolve().parents[1] / "bench" / "expected" / "catalog.json"


def test_cli_output_matches_recorded_answers(capsys):
    # replays every recorded command line (verify --deep, fingerprint-all,
    # invariants / h2 / fingerprint of each table, peirce NAME e1) and
    # compares exit code, stdout and stderr byte for byte
    recorded = json.loads(RECORDED_ANSWERS.read_text())
    assert len(recorded) == 336
    for argv, want in recorded.items():
        code, out, err = run(capsys, *argv.split())
        assert {"exit": code, "stdout": out, "stderr": err} == want, argv
