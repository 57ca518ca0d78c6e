"""The one-pass catalog parser against the parser it replaced
(`helpers.reference_parse_catalog`): equal entries or the same error, on
the shipped files and on seeded mutants of them."""

import random
import shutil

import pytest
from helpers import reference_parse_catalog

from jordanalg import catalog as cat
from jordanalg import cli
from jordanalg.catalog import CatalogParseError, catalog_order, parse_catalog

FILES = sorted(cat.data_dir().glob("*.alg"))

# Lines that are malformed, or not allowed in some entries: `dim`/`basis`
# in a sum entry, `labels` in an inline entry.  `²` and `٣` are digits to
# `str.isdigit` but not ASCII.
INSERTED = (
    "dim 4", "dim 17", "dim x", "dim", "dim ²", "dim ٣", "basis e1 n1 n2 n3", "basis a a",
    "labels e1 n1 n2 n3", "labels a a", "labels", "expect", "expect foo", "expect aut",
    "expect aut ²", "expect ann ٣", "expect sq 1 2", "expect flags unitary bogus",
    "expect niltype 1,2", "expect niltype (1,a)", "expect peirce n1 N9", "expect radical +",
    "expect h2 ²", "expect h2 some", "expect b2 maybe", "e1*e1 = e1", "n1*n1 = n2",
    "n1*zz = n1", "e1*n1 = 1/0 n1", "e1*n1 = 2 3 n1", "*n1 = n1", "n1* = n1", "x*y",
    "algebra Q", "foo bar",
)
# Tokens an edit may put in place of another, beside the file's own tokens.
EDITS = ("", "0", "4", "17", "²", "٣", "x", "zz", "1/0", "1/2", "-", "+", "=", "*",
         "e1*e1", "yes", "zero", "nonzero", "(1,a)", "(2,1)", "N1", "Nhalf", "end", "algebra")


def delete_line(rng, lines):
    del lines[rng.randrange(len(lines))]


def duplicate_line(rng, lines):
    i = rng.randrange(len(lines))
    lines.insert(rng.randrange(len(lines) + 1), lines[i])


def edit_token(rng, lines):
    i = rng.choice([k for k, line in enumerate(lines) if line.split()])
    tokens = lines[i].split()
    own = [t for line in rng.sample(lines, 3) for t in line.split()]
    tokens[rng.randrange(len(tokens))] = rng.choice(EDITS + tuple(own))
    lines[i] = "  " + " ".join(tokens)


def insert_line(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), "  " + rng.choice(INSERTED))


def outcome(parse, text):
    try:
        return "entries", parse(text)
    except CatalogParseError as exc:
        return "error", exc.line_no, exc.message
    except ValueError as exc:  # the reference sends `²` to `int`
        return "crash", str(exc)


def non_ascii_digits(text):
    return any(c.isdigit() and not c.isascii() for c in text)


def test_shipped_files_parse_as_the_reference():
    for path in FILES:
        text = path.read_text()
        assert parse_catalog(text) == reference_parse_catalog(text), path.name


@pytest.mark.parametrize("mutate", (delete_line, duplicate_line, edit_token, insert_line),
                         ids=lambda m: m.__name__)
def test_mutants_parse_as_the_reference(mutate):
    # each mutant gives equal entries or the same error at the same line;
    # a count in non-ASCII digits is the one intended difference: it is a
    # usage error now, where the reference crashed or took it
    rng = random.Random(f"jordanalg:parse-mutants:{mutate.__name__}")
    kinds = set()
    for path in FILES:
        original = path.read_text().splitlines()
        for _ in range(75):
            lines = list(original)
            mutate(rng, lines)
            text = "\n".join(lines) + "\n"
            new, old = outcome(parse_catalog, text), outcome(reference_parse_catalog, text)
            kinds.add(new[0])
            if new == old:
                continue
            assert new[0] == "error" and new[2].startswith("usage: "), (path.name, new, old)
            assert non_ascii_digits(lines[new[1] - 1]), (path.name, new, old)
    assert kinds == {"entries", "error"}


def test_each_distinct_body_line_is_parsed_once_per_call(monkeypatch):
    calls = []
    parse_line = cat._parse_line

    def counting(line):
        calls.append(line)
        return parse_line(line)

    monkeypatch.setattr(cat, "_parse_line", counting)
    text = (cat.data_dir() / "dim4_radical3.alg").read_text()
    first = parse_catalog(text)
    assert len(calls) == len(set(calls)) == 55
    # no state carries from one call to the next
    assert parse_catalog(text) == first
    assert len(calls) == 110 and calls[55:] == calls[:55]


@pytest.mark.parametrize("line, message", [
    ("dim ²", "usage: dim N"),
    ("expect aut ²", "usage: expect aut K"),
    ("expect ann ²", "usage: expect ann K"),
    ("expect sq ²", "usage: expect sq K"),
    ("expect h2 ²", "usage: expect h2 zero|nonzero|K"),
    ("expect aut ٣", "usage: expect aut K"),
    ("expect niltype (-1,+2,٣)", "usage: expect niltype (a,b,...)"),
    ("expect niltype (1,-1)", "usage: expect niltype (a,b,...)"),
])
def test_counts_are_ascii_digits(line, message):
    text = f"algebra A\n  {line}\n  dim 1\n  basis x\nend\n"
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(text)
    assert (err.value.line_no, err.value.message) == (2, message)


def test_cli_reports_a_signed_niltype_part_as_a_usage_error(capsys, tmp_path):
    # `int` took `-1` as a part, which `verify` then reported as an erratum
    path = tmp_path / "bad.alg"
    path.write_text("algebra A\n  dim 1\n  basis x\n  expect niltype (-1)\nend\n")
    assert cli.main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: line 4: usage: expect niltype (a,b,...)\n")


def test_names_with_non_ascii_digits_sort_as_unnumbered():
    entries = parse_catalog("algebra J²\n  dim 1\n  basis x\nend\n"
                            "algebra J2\n  dim 1\n  basis y\nend\n")
    assert [e.name for e in catalog_order(entries)] == ["J²", "J2"]


def test_cli_reports_a_non_ascii_count_as_a_usage_error(capsys, tmp_path):
    # `dim ²` used to end in a traceback from `int`, and `expect h2 ²` in one
    # from `verify --deep`; both are now parse errors that name the file
    path = tmp_path / "bad.alg"
    path.write_text("algebra A\n  dim ²\n  basis x\nend\n")
    assert cli.main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: line 2: usage: dim N\n")
    shutil.copytree(cat.data_dir(), tmp_path / "catalog")
    with open(tmp_path / "catalog" / "dim1.alg", "a") as f:
        f.write("algebra H\n  dim 1\n  basis x\n  expect h2 ²\nend\n")
    assert cli.main(["verify", "--deep", "--dir", str(tmp_path / "catalog")]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("dim1.alg: line 18: usage: expect h2 zero|nonzero|K\n")
    assert captured.err.count("\n") == 1
