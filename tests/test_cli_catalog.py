"""How CLI commands read the catalog: every command reports a malformed
catalog as `verify` does, a command on one name builds only the tables
that name needs, and a file text parsed before in the process is reused
but never stale."""

import os
import random
import re
import shutil
import time
from collections import Counter

import pytest

from jordanalg import catalog, cli
from jordanalg.cli import main
from helpers import (
    INDEX_ZERO,
    NOT_JORDAN,
    NOT_ORTHOGONAL,
    SHARED_INDEX,
    UNKNOWN_LABEL,
    WRONG_PLACE,
)

NAME_COMMANDS = (("h2", "J1"), ("show", "F1"), ("invariants", "J73"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def copy_catalog(tmp_path):
    directory = tmp_path / "catalog"
    shutil.copytree(catalog.data_dir(), directory)
    return directory


def lines_of(directory):
    return {p: p.read_text().splitlines() for p in sorted(directory.glob("*.alg"))}


def pick_line(rng, files, pattern, exclude=()):
    """A random (file, index) whose line matches `pattern`, outside the
    entries named in `exclude`."""
    hits = []
    for path, lines in files.items():
        entry = None
        for i, line in enumerate(lines):
            header = re.match(r"algebra (\S+)", line)
            if header:
                entry = header.group(1)
            if re.search(pattern, line) and entry not in exclude:
                hits.append((path, i))
    return rng.choice(hits)


# Each mutation edits the catalog copy at a seeded place and returns the
# exit code `verify --dir` should give, 2 for a file that does not parse or
# load and 1 for a reference that does not resolve, with the files the
# error must name.  The reference mutations
# leave alone the entries the commands name and their summands, so that only
# the catalog-wide check can see them.
UNRELATED = {"J1", "T5", "F1", "J73", "F2"}


def zero_denominator(rng, files):
    path, i = pick_line(rng, files, r"\*.* = ")
    files[path][i] = files[path][i].replace(" = ", " = 1/0 ", 1)
    return 2, (path,)


def missing_end(rng, files):
    path, i = pick_line(rng, files, r"^end$")
    del files[path][i]
    return 2, (path,)


def duplicate_across_files(rng, files):
    source, target = rng.sample(sorted(files), 2)
    _, i = pick_line(rng, {source: files[source]}, r"^algebra ")
    name = files[source][i].split()[1]
    _, j = pick_line(rng, {target: files[target]}, r"^algebra ")
    files[target][j] = re.sub(r"^algebra \S+", f"algebra {name}", files[target][j])
    return 2, (source, target)


def unknown_product_label(rng, files):
    path, i = pick_line(rng, files, r"\*.* = ")
    files[path][i] += " + zz"
    return 2, (path,)


def basis_not_dim(rng, files):
    path, i = pick_line(rng, files, r"^\s*dim \d+$")
    n = int(files[path][i].split()[1])
    files[path][i] = f"  dim {n + 1}"
    return 2, (path,)


def unknown_summand(rng, files):
    path, i = pick_line(rng, files, r"^algebra \S+ = ", exclude=UNRELATED)
    files[path][i] += " + Nope"
    return 1, ()


def labels_wrong_length(rng, files):
    path, i = pick_line(rng, files, r"^\s*labels ", exclude=UNRELATED)
    files[path][i] = files[path][i].rsplit(" ", 1)[0]
    return 1, ()


MUTATIONS = (zero_denominator, missing_end, duplicate_across_files, unknown_product_label,
             basis_not_dim, unknown_summand, labels_wrong_length)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_every_command_reports_a_malformed_catalog(capsys, tmp_path, mutate, seed):
    directory = copy_catalog(tmp_path)
    files = lines_of(directory)
    want_code, named = mutate(random.Random(f"{mutate.__name__}:{seed}"), files)
    for path, lines in files.items():
        path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "--dir", str(directory))
    assert (code, out) == (want_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(str(path) in err for path in named), err
    for argv in NAME_COMMANDS:
        assert run(capsys, *argv, "--dir", str(directory)) == (code, out, err), argv


def test_parse_errors_name_their_file(capsys, tmp_path):
    directory = copy_catalog(tmp_path)
    path = directory / "dim1.alg"
    lines = path.read_text().splitlines()
    assert lines[5] == "  e*e = e"
    lines[5] = "  e*e = 1/0 e"
    path.write_text("\n".join(lines) + "\n")
    for argv in (("verify",), ("h2", "J1")):
        code, out, err = run(capsys, *argv, "--dir", str(directory))
        assert (code, out) == (2, ""), argv
        assert err == f"error: {path}: line 6: zero denominator\n", argv


@pytest.mark.parametrize("command", ("invariants", "fingerprint", "h2"))
def test_parse_errors_of_a_named_file_name_it(capsys, tmp_path, command):
    # a NAME that is a catalog file path reports its parse errors as a
    # --dir file does: file and line named, exit 2
    cases = (
        ("big.alg", "algebra Big\n  dim 40\n  basis a\nend\n",
         f"line 2: dim 40 exceeds the limit {catalog.MAX_CATALOG_DIM}"),
        ("zero.alg", "algebra Z\n  dim 1\n  basis e\n  e*e = 1/0 e\nend\n",
         "line 4: zero denominator"),
    )
    for name, text, message in cases:
        path = tmp_path / name
        path.write_text(text)
        assert run(capsys, command, str(path)) == (2, "", f"error: {path}: {message}\n"), name


def test_oversized_entries_fail_fast(capsys, tmp_path):
    # a dim line over the limit does not parse (exit 2, file and line named);
    # a doubling chain of sums is refused at the first sum over the limit
    big = " ".join(f"l{i}" for i in range(40))
    cases = (
        ("big.alg", f"algebra Big\n  dim 40\n  basis {big}\n  l0*l0 = l0\nend\n", 2,
         f"error: {{path}}: line 2: dim 40 exceeds the limit {catalog.MAX_CATALOG_DIM}\n"),
        ("nest.alg", "algebra N1 = J1 + J1\nend\n" + "".join(
            f"algebra N{k + 1} = N{k} + N{k}\nend\n" for k in range(1, 40)), 1,
         f"error: N3: dim 32 exceeds the limit {catalog.MAX_CATALOG_DIM}\n"),
    )
    for name, text, want_code, want_err in cases:
        directory = copy_catalog(tmp_path / name)
        path = directory / name
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--dir", str(directory))
        assert time.perf_counter() - start < 1.0, name
        assert (code, out, err) == (want_code, "", want_err.format(path=path)), name


def summand_closure(entries, name):
    by_name = {e.name: e for e in entries}
    names, todo = set(), [name]
    while todo:
        n = todo.pop()
        if n not in names:
            names.add(n)
            todo += by_name[n].summands or ()
    return names


@pytest.fixture
def work(monkeypatch):
    """Counts the entries `catalog.resolve` builds, by name, and the calls of
    `cli.build_parser` and `catalog.load_catalog`."""
    counts = {"resolve": Counter(), "build_parser": 0, "load_catalog": 0}
    resolve, build_parser, load = catalog.resolve, cli.build_parser, catalog.load_catalog

    def counting_resolve(entry, env):
        counts["resolve"][entry.name] += 1
        return resolve(entry, env)

    def counting_build_parser():
        counts["build_parser"] += 1
        return build_parser()

    def counting_load(*args, **kwargs):
        counts["load_catalog"] += 1
        return load(*args, **kwargs)

    monkeypatch.setattr(catalog, "resolve", counting_resolve)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(catalog, "load_catalog", counting_load)
    return counts


def test_one_name_builds_only_what_it_needs(capsys, work, entries):
    # J2 is an inline entry; J1 = T5 + F1 and J67 = T3 + F2 are sum entries
    code, out, _ = run(capsys, "h2", "J2")
    assert code == 0 and out.startswith("z2=")
    assert work["resolve"] == Counter({"J2": 1})
    for argv in (("h2", "J1"), ("invariants", "J67")):
        work["resolve"].clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(summand_closure(entries, argv[1])) == 3
        assert work["resolve"] == Counter(summand_closure(entries, argv[1])), argv
    assert work["build_parser"] == 0


def test_distinguish_loads_the_catalog_once(capsys, work):
    code, out, _ = run(capsys, "distinguish", "J58", "J60")
    assert (code, out) == (0, "rad_record.dim_ann: 2 vs 1\n")
    assert work["load_catalog"] == 1
    assert work["resolve"] == Counter({"J58": 1, "J60": 1})


def test_file_entries_build_only_what_they_need(capsys, tmp_path, work, entries):
    f = tmp_path / "mine.alg"
    f.write_text("algebra Mine = B2 + B3\nend\n")
    code, _, _ = run(capsys, "invariants", str(f))
    assert code == 0
    want = Counter(summand_closure(entries, "B2") | summand_closure(entries, "B3"))
    want["Mine"] = 1
    assert work["resolve"] == want


def test_file_entries_see_the_names_defined_before_them(capsys, tmp_path):
    # a file may redefine a catalog name; its later entries use the new one
    f = tmp_path / "mine.alg"
    f.write_text("algebra F2\n  dim 1\n  basis m\n  m*m = m\nend\n"
                 "algebra Mine = F2 + F1\nend\n")
    code, out, err = run(capsys, "show", str(f))
    assert (code, err) == (0, "")
    assert out == "algebra Mine\n  dim 2\n  basis m e\n  m*m = m\n  e*e = e\nend\n"


def verify_dir(capsys, tmp_path, text):
    directory = tmp_path / "one"
    directory.mkdir()
    (directory / "one.alg").write_text(text)
    return run(capsys, "verify", "--dir", str(directory))


def test_verify_lists_a_wrong_peirce_place(capsys, tmp_path):
    code, out, err = verify_dir(capsys, tmp_path, WRONG_PLACE)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "W: 1 invariant mismatch(es)  [aut=2 ann=0 sq=2]"
    assert "  W: peirce n1: recorded N11, computed N01" in out.splitlines()


@pytest.mark.parametrize("text, message", (
    (NOT_ORTHOGONAL, "O: basis idempotents e1 and e2 are not orthogonal"),
    (UNKNOWN_LABEL, "W: unknown basis label 'q' in expect peirce"),
    (INDEX_ZERO, "Z: basis idempotent e0 has index 0, which places keep for the complement"),
    (SHARED_INDEX, "S: basis idempotents e1 and e01 share index 1"),
), ids=("not_orthogonal", "unknown_label", "index_zero", "shared_index"))
def test_verify_names_the_entry_of_a_hostile_peirce_record(capsys, tmp_path, text, message):
    code, out, err = verify_dir(capsys, tmp_path, text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_of_a_non_jordan_table_with_a_peirce_record(capsys, tmp_path):
    code, out, err = verify_dir(capsys, tmp_path, NOT_JORDAN)
    # placements are read only on a Jordan table: the scan is fatal first
    assert (code, err) == (1, "")
    assert out.startswith("Bad: JORDAN FAIL (quadruple ")
    assert "peirce" not in out


# Two tables of the same byte length: F1 plus a null line, and the null
# algebra x*x = y.
SAME_LENGTH = ("algebra X\n  dim 2\n  basis x y\n  x*x = x\nend\n",
               "algebra X\n  dim 2\n  basis x y\n  x*x = y\nend\n")


def test_a_rewritten_file_gives_the_new_answer(capsys, tmp_path):
    # the memo is keyed on the text, so a rewrite that keeps the size and
    # the modification time is still seen
    directory = tmp_path / "catalog"
    directory.mkdir()
    path = directory / "x.alg"
    path.write_text(SAME_LENGTH[0])
    first = run(capsys, "h2", "X", "--dir", str(directory))
    stat = path.stat()
    path.write_text(SAME_LENGTH[1])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    second = run(capsys, "h2", "X", "--dir", str(directory))
    assert (first, second) == ((0, "z2=4 b2=3 h2=1\n", ""), (0, "z2=4 b2=2 h2=2\n", ""))


def test_a_malformed_file_fails_alike_on_every_call(tmp_path):
    # a parse error is never kept: each call raises it again, with the file
    path = tmp_path / "zero.alg"
    path.write_text("algebra Z\n  dim 1\n  basis e\n  e*e = 1/0 e\nend\n")
    for load, arg in ((catalog.parse_catalog_file, path), (catalog.load_catalog, tmp_path)) * 2:
        with pytest.raises(catalog.CatalogParseError) as err:
            load(arg)
        assert (str(err.value), err.value.line_no) == (f"{path}: line 4: zero denominator", 4)


def test_returned_lists_belong_to_the_caller():
    want = catalog.load_catalog()
    hash(tuple(want))  # no list, dict or set inside an entry
    for load, arg in ((catalog.load_catalog, None),
                      (catalog.parse_catalog_file, catalog.data_dir() / "dim1.alg")):
        expected = load(arg)
        got = load(arg)
        got.append(got[0])
        assert load(arg) == expected
        got.clear()
        assert load(arg) == expected
    assert catalog.load_catalog() == want


def test_files_added_or_removed_between_loads(tmp_path):
    directory = copy_catalog(tmp_path)
    names = [e.name for e in catalog.load_catalog(directory)]
    (directory / "zz.alg").write_text(SAME_LENGTH[0])
    assert [e.name for e in catalog.load_catalog(directory)] == names + ["X"]
    dim1 = {e.name for e in catalog.parse_catalog_file(directory / "dim1.alg")}
    (directory / "dim1.alg").unlink()
    assert [e.name for e in catalog.load_catalog(directory)] == \
        [n for n in names if n not in dim1] + ["X"]


REUSE_COMMANDS = (("h2", "J50"), ("invariants", "J50"), ("fingerprint", "J2"),
                  ("peirce", "J56", "e1"), ("distinguish", "J58", "J60"))


def test_commands_in_one_process_parse_each_bundled_file_once(capsys, monkeypatch,
                                                              cleared_parse_memo):
    calls = []
    parse = catalog.parse_catalog

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(catalog, "parse_catalog", counting)
    outputs = [run(capsys, *argv) for argv in REUSE_COMMANDS]
    files = sorted(catalog.data_dir().glob("*.alg"))
    assert len(files) == 8
    assert sorted(calls) == sorted(f.read_text(encoding="utf-8") for f in files)
    for argv, output in zip(REUSE_COMMANDS, outputs):
        catalog._parse_text.cache_clear()
        assert run(capsys, *argv) == output, argv
    assert all(code == 0 for code, _, _ in outputs)
