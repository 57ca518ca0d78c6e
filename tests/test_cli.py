import json
import sys
from collections import Counter
from pathlib import Path

from jordanalg.cli import main


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
    # each qualifying entry gets one cocycle_space and one embeds_b2 call;
    # the calls inside fingerprint belong to the radical-type check
    from jordanalg import catalog, cli, cohomology, polysolve

    calls = {"cocycle_space": Counter(), "embeds_b2": Counter()}
    name_of = {env[e.name].table: e.name for e in entries}

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "fingerprint":
                calls[name][name_of.get(a.table)] += 1
            return original(a, *args, **kwargs)

        return wrapper

    for module, name in ((cohomology, "cocycle_space"), (polysolve, "embeds_b2")):
        wrapper = counting(name, getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(catalog, name, wrapper)
    code, out, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert calls["cocycle_space"] == Counter(e.name for e in entries if e.expected.h2)
    assert calls["embeds_b2"] == Counter(e.name for e in entries if e.expected.b2)
    assert out.count("H2(") == sum(calls["cocycle_space"].values())


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
    # the delta^1 echelon is cached on the algebra, so the aut column's
    # derivation_dim and the h2 check's cocycle_space share one echelon
    from jordanalg import algebra

    built = []
    original = algebra.coboundary_int_rows
    monkeypatch.setattr(algebra, "coboundary_int_rows",
                        lambda a: built.append(a) or original(a))
    code, _, _ = run(capsys, "verify", "--deep")
    assert code == 0
    assert len(built) == len({id(a) for a in built}) == 124


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
