import re
from fractions import Fraction

import pytest

from jordanalg.algebra import Algebra, AlgebraError, NonJordanError, _dedupe_labels, direct_sum
from jordanalg.catalog import (
    MAX_CATALOG_DIM,
    CatalogEntry,
    CatalogError,
    CatalogParseError,
    check_peirce_placements,
    check_references,
    parse_catalog,
    resolve,
    resolve_all,
    resolve_named,
    serialize,
    serialize_entry,
    verify_catalog,
    verify_entry,
    _is_count,
)
from helpers import (
    INDEX_ZERO,
    NOT_JORDAN,
    NOT_ORTHOGONAL,
    SHARED_INDEX,
    UNKNOWN_LABEL,
    WRONG_PLACE,
    reference_peirce_placements,
)

F = Fraction


def test_parse_inline_entry():
    text = """
algebra B3
  dim 2
  basis n1 n2
  n1*n1 = n2
end
"""
    (entry,) = parse_catalog(text)
    a = resolve(entry, {})
    assert a.mul(a.basis_vector(0), a.basis_vector(0)) == a.element({"n2": 1})
    assert a.table[0][1] == (F(0), F(0))


def test_inline_terms_are_summed_per_label(env):
    # the two terms on n1 add up before the table is built, and the product
    # is mirrored: the entry is B2's table under another name
    text = """
algebra R
  dim 2
  basis e1 n1
  e1*e1 = e1
  e1*n1 = 1/4 n1 + 1/4 n1
end
"""
    (entry,) = parse_catalog(text)
    a = resolve(entry, {})
    assert a == env["B2"]
    assert a.table[1][0] == a.table[0][1] == (F(0), F(1, 2))


def test_parse_sum_entry(env):
    text = "algebra X = B3 + B3\nend\n"
    (entry,) = parse_catalog(text)
    a = resolve(entry, env)
    assert a.table == direct_sum(env["B3"], env["B3"]).table


def test_parse_empty_body_is_zero_algebra():
    text = "algebra Z\n  dim 3\n  basis a b c\nend\n"
    (entry,) = parse_catalog(text)
    a = resolve(entry, {})
    assert all(all(x == 0 for x in a.table[i][j]) for i in range(3) for j in range(3))


def test_parse_rejects_duplicates():
    text = "algebra A\n dim 1\n basis x\nend\nalgebra A\n dim 1\n basis y\nend\n"
    with pytest.raises(CatalogParseError):
        parse_catalog(text)


def test_parse_error_carries_line_number():
    text = "algebra A\n  dim 1\n  basis x\n  x*y = x\nend\n"
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(text)
    assert "line 4" in str(err.value)


def test_parse_rejects_bad_coefficient():
    text = "algebra A\n  dim 1\n  basis x\n  x*x = q/2 x\nend\n"
    with pytest.raises(CatalogParseError):
        parse_catalog(text)
    for rhs, message in [
        ("", "trailing operator or coefficient"),
        ("x -", "trailing operator or coefficient"),
        ("2 + x", "dangling coefficient"),
        ("2 - x", "dangling coefficient"),
        ("2 3 x", "two coefficients in a row"),
        ("x x", "missing operator"),
        ("1/0 x", "zero denominator"),
        ("1/ x", "missing operator"),
    ]:
        text = f"algebra A\n  dim 1\n  basis x\n  x*x = {rhs}\nend\n"
        with pytest.raises(CatalogParseError) as err:
            parse_catalog(text)
        assert str(err.value) == f"line 4: {message}", rhs


def test_dimension_limit(env):
    def inline(n):
        labels = " ".join(f"n{i}" for i in range(n))
        return f"algebra X\n  dim {n}\n  basis {labels}\nend\n"

    (entry,) = parse_catalog(inline(MAX_CATALOG_DIM))
    assert resolve(entry, {}).dim == MAX_CATALOG_DIM
    with pytest.raises(CatalogParseError, match=r"^line 2: dim 17 exceeds the limit 16$"):
        parse_catalog(inline(MAX_CATALOG_DIM + 1))
    # four copies of J1 fill the limit; a fifth summand, in a sum entry or
    # in an expression such as `expect radical`, goes past it
    entries = parse_catalog("algebra S = J1 + J1 + J1 + J1\nend\n"
                            "algebra T = S + F1\nend\n")
    assert check_references(entries[:1], {"J1": 4})["S"] == MAX_CATALOG_DIM
    with pytest.raises(CatalogError, match=r"^T: dim 17 exceeds the limit 16$"):
        check_references(entries, {"J1": 4, "F1": 1})
    with pytest.raises(CatalogError, match=r"^R: dim 17 exceeds the limit 16$"):
        resolve(CatalogEntry("R", summands=("J1",) * 4 + ("F1",)), env)
    # algebras built in code are not limited
    assert direct_sum(resolve(entry, {}), env["F1"]).dim == MAX_CATALOG_DIM + 1


def test_parse_refuses_a_name_that_does_not_read_back():
    # the parser takes a name by the rule `serialize_entry` writes it by: a
    # tab or other whitespace in it is refused, as a space is
    for bad in ("X\tY", "X\u00a0Y", "X\u2003Y", "X Y"):
        with pytest.raises(CatalogParseError, match="^line 1: bad algebra name$"):
            parse_catalog(f"algebra {bad}\n  dim 1\n  basis x\nend\n")
        with pytest.raises(CatalogParseError, match="^line 1: bad algebra name$"):
            parse_catalog(f"algebra {bad} = F1\nend\n")
    (entry,) = parse_catalog("algebra X_2'\n  dim 1\n  basis x\nend\n")
    assert entry.name == "X_2'"


def test_parse_rejects_repeated_product_pair():
    text = "algebra A\n  dim 2\n  basis x y\n  x*y = x\n  y*x = y\nend\n"
    with pytest.raises(CatalogParseError) as err:
        parse_catalog(text)
    assert "twice" in str(err.value)


def test_resolve_rejects_unknown_summand(env):
    (entry,) = parse_catalog("algebra X = B3 + Nope\nend\n")
    with pytest.raises(CatalogError, match="X: unknown summand 'Nope'"):
        resolve(entry, env)
    with pytest.raises(CatalogError, match="^R: unknown summand 'NOPE'$"):
        resolve(CatalogEntry("R", summands=("B2", "NOPE")), env)


def test_check_references_raises_what_resolve_all_raises(entries, env):
    assert check_references(entries) == {name: a.dim for name, a in env.items()}
    for text, message in [
        ("algebra X = B3 + Nope\nend\n", "X: unknown summand 'Nope'"),
        ("algebra X = B3 + B3\n  labels a b c\nend\n", "X: labels line has wrong length"),
    ]:
        bad = list(entries) + parse_catalog(text)
        for check in (check_references, resolve_all):
            with pytest.raises(CatalogError) as err:
                check(bad)
            assert str(err.value) == message


def test_resolve_named_matches_resolve_all(entries, env):
    for entry in entries:
        assert resolve_named(entries, entry.name) == env[entry.name]
    # a redefined name: each sum entry sees the latest definition before it
    seq = parse_catalog(
        "algebra A\n  dim 1\n  basis x\n  x*x = x\nend\nalgebra S = A + A\nend\n"
    ) + parse_catalog(
        "algebra A\n  dim 1\n  basis y\nend\nalgebra T = S + A\nend\n"
        "algebra S = T + A\nend\n"
    )
    check_references(seq)
    want = resolve_all(seq)
    for name in ("A", "T", "S"):
        assert resolve_named(seq, name) == want[name], name
    assert resolve_named(seq, "S").dim == 4


def test_resolve_j12_dimension(env):
    assert env["J12"].dim == 4


def test_resolve_f1(env):
    f1 = env["F1"]
    assert f1.mul(f1.basis_vector(0), f1.basis_vector(0)) == f1.basis_vector(0)


def test_resolve_sum_is_direct_sum(entries, env):
    for entry in entries:
        if entry.summands is not None:
            parts = [env[name] for name in entry.summands]
            acc = parts[0]
            for p in parts[1:]:
                acc = direct_sum(acc, p)
            assert env[entry.name].table == acc.table


def test_resolved_sums_hold_their_constants_and_are_built_once(entries, monkeypatch):
    # every entry is built once by `_from_int_structure`: a table from the
    # constants of its parsed coefficients, a sum from its summands' integer
    # constants with its final labels (renamed repeats or a labels line);
    # each holds the constants its Fraction table gives
    import jordanalg.algebra as alg

    built = []

    def builder(den, srows, labels, _build=alg._from_int_structure):
        built.append(labels)
        return _build(den, srows, labels)

    monkeypatch.setattr(alg, "_from_int_structure", builder)
    env = resolve_all(entries)
    monkeypatch.undo()
    sums = [e for e in entries if e.summands is not None]
    assert len(sums) > 10 and len(built) == len(entries)
    assert sorted(map(tuple, built)) == sorted(env[e.name].labels for e in entries)
    for entry in entries:
        a = env[entry.name]
        assert "_int_structure" in a.__dict__, entry.name
        assert a._int_structure == Algebra(a.labels, a.table)._int_structure, entry.name
    assert any(e.labels_override is not None for e in sums)


def test_nested_sums_get_distinct_labels(env):
    # P = F1 + F1 has labels (e, e_2); a repeat of e in P + F1 used to be
    # renamed e_2 as well
    assert _dedupe_labels(("e", "e_2", "e")) == ("e", "e_2", "e_3")
    assert _dedupe_labels(("e", "e", "e_2", "e")) == ("e", "e_3", "e_2", "e_4")
    assert _dedupe_labels(("x", "y", "x", "x", "y")) == ("x", "y", "x_2", "x_3", "y_2")
    entries = parse_catalog("algebra P = F1 + F1\nend\nalgebra Q = P + F1\nend\n")
    sums = dict(env)
    for entry in entries:
        sums[entry.name] = resolve(entry, sums)
    assert sums["P"].labels == ("e", "e_2")
    assert sums["Q"].labels == ("e", "e_2", "e_3")
    assert resolve(CatalogEntry("R", summands=("P", "P")), sums).labels == (
        "e", "e_2", "e_3", "e_2_2")


def test_direct_sum_renames_repeated_labels(env):
    # direct_sum renames a repeat as catalog sums do, so its sum of F1 with
    # itself serializes and each label names its own coordinate
    f1 = env["F1"]
    a = direct_sum(f1, f1)
    assert a.labels == ("e", "e_2") == resolve(CatalogEntry("R", summands=("F1",) * 2), env).labels
    assert a.element({"e": 1}) == (1, 0) and a.element({"e_2": 1}) == (0, 1)
    (entry,) = parse_catalog(serialize_entry("X", a))
    assert (entry.basis, resolve(entry, {}).table) == (a.labels, a.table)
    assert direct_sum(a, f1).labels == ("e", "e_2", "e_3")


def test_catalog_counts(entries, env):
    assert len(entries) == 88
    assert sum(1 for e in entries if env[e.name].dim == 4) == 73
    by_dim = {}
    for e in entries:
        by_dim[env[e.name].dim] = by_dim.get(env[e.name].dim, 0) + 1
    assert by_dim == {1: 2, 2: 3, 3: 10, 4: 73}


def test_serialize_round_trip(entries, env):
    for entry in entries:
        a = env[entry.name]
        text = serialize_entry(entry.name, a)
        (reparsed,) = parse_catalog(text)
        b = resolve(reparsed, {})
        assert b.labels == a.labels and b.table == a.table


def test_serialize_refuses_a_label_or_name_that_does_not_read_back():
    # whitespace and the characters of a product line break the line, a
    # rational literal reads as a coefficient, and with the label `#x` the
    # line `#x*#x = y` reads as a comment, so the table would come back
    # different without an error
    for bad in ("a b", "x\ty", "a*b", "a=b", "a+b", "a-b", "2", "1/2", "#x", ""):
        a = Algebra.from_products((bad, "y"), {(bad, bad): {"y": 1}})
        for write in (serialize, lambda a: serialize_entry("X", a)):
            with pytest.raises(CatalogError, match=re.escape(f"label {bad!r}")):
                write(a)
        # the parser refuses the same labels, as a basis or a labels token
        if bad and bad.split() == [bad]:
            for text, line_no in ((f"algebra X\n  dim 2\n  basis {bad} y\nend\n", 3),
                                  (f"algebra X = F2 + F1\n  labels y {bad}\nend\n", 2)):
                with pytest.raises(CatalogParseError) as err:
                    parse_catalog(text)
                assert (err.value.line_no, err.value.message) == (line_no, f"bad label {bad!r}")
    good = Algebra.from_products(("x_2", "1/2x", "x#", "e1'"), {("x_2", "x#"): {"1/2x": 1}})
    (entry,) = parse_catalog(serialize_entry("X", good))
    assert resolve(entry, {}) == good
    for bad in ("a b", "X=Y", ""):
        with pytest.raises(CatalogError, match=re.escape(f"name {bad!r}")):
            serialize_entry(bad, good)
    with pytest.raises(CatalogError, match="^serialization needs distinct labels$"):
        serialize(Algebra(("x", "x"), [[[0, 0]] * 2] * 2))
    n = MAX_CATALOG_DIM + 1
    big = Algebra.from_products([f"x{i}" for i in range(n)], {("x0", "x0"): {"x0": 1}})
    with pytest.raises(CatalogError, match=f"^dim {n} exceeds the limit {MAX_CATALOG_DIM}$"):
        serialize(big)


def test_serialize_rejects_noncommutative():
    from jordanalg.algebra import matrix_algebra

    with pytest.raises(Exception):
        serialize(matrix_algebra(2))


def test_verify_catalog_no_fatal(entries):
    report = verify_catalog(entries)
    assert not report.fatal
    assert all(r.jordan_ok for r in report.results)


def test_verify_reads_no_fraction_table(entries, monkeypatch):
    # every check of `verify` and `verify --deep`, the Peirce placements
    # among them, reads the integer constants: no `Algebra.table` is read
    reads = []
    table = Algebra.table
    monkeypatch.setattr(Algebra, "table",
                        property(lambda a: reads.append(a.labels) or table.func(a)))
    for deep in (False, True):
        report = verify_catalog(entries, deep=deep)
        assert not report.fatal and len(report.errata) == 9
    assert reads == []


def test_verify_entry_refuses_a_noncommutative_table():
    # catalog tables are mirrored, so commutative; a table built in code
    # with y*x = y and x*y = 0 is refused, not reported
    a = Algebra.from_products(("x", "y"), {("y", "x"): {"y": 1}}, symmetric=False)
    [entry] = parse_catalog("algebra N\n  dim 2\n  basis x y\nend\n")
    with pytest.raises(AlgebraError):
        verify_entry(entry, a, {})


def test_verify_reports_mismatch_with_both_values():
    text = """
algebra W
  dim 2
  basis e1 n1
  e1*e1 = e1
  e1*n1 = n1
  expect ann 2
end
"""
    report = verify_catalog(parse_catalog(text))
    assert not report.fatal
    (result,) = report.results
    assert result.mismatches == ["ann: recorded 2, computed 0"]
    assert "recorded" in report.text() and "computed" in report.text()


def test_verify_flags_fatal_on_non_jordan():
    text = """
algebra Bad
  dim 4
  basis e1 n1 n2 n3
  e1*e1 = e1
  e1*n1 = 1/2 n1
  e1*n3 = 1/2 n3
  n1*n1 = n2
  n1*n2 = n3
end
"""
    report = verify_catalog(parse_catalog(text))
    assert report.fatal
    (result,) = report.results
    assert not result.jordan_ok and result.violation


def test_peirce_placements_all_annotated_rows(entries, env):
    checked = 0
    annotated = set()
    for entry in entries:
        for label, want, got, ok in check_peirce_placements(entry, env[entry.name]):
            checked += 1
            annotated.add(entry.name)
            assert ok, f"{entry.name}: {label} recorded {want}, computed {got}"
    assert checked == 78
    assert annotated == {e.name for e in entries if e.expected.peirce}
    assert len(annotated) == 36


def test_peirce_place_of_a_missing_idempotent_is_a_mismatch(entries, env):
    # J10 has the basis idempotents e1 and e2; N03 names an e3 it does not
    # have, so the row is a mismatch that still shows where n1 lies
    (entry,) = [e for e in entries if e.name == "J10"]
    wrong = entry._replace(expected=entry.expected._replace(peirce=(("n1", "N03"),)))
    assert check_peirce_placements(wrong, env["J10"]) == [("n1", "N03", "N01", False)]


def test_an_idempotent_labelled_e_has_no_place_index(env):
    # F1's idempotent is labelled e, not e<count>, so the entry has no basis
    # idempotent and a single-index place is refused as for several
    (entry,) = parse_catalog("algebra F1E\n  dim 1\n  basis e\n  e*e = e\n"
                             "  expect peirce e N1\nend\n")
    with pytest.raises(CatalogError, match="^F1E: single-index places need one idempotent$"):
        check_peirce_placements(entry, resolve(entry, env))


def test_an_idempotent_labelled_e_2_has_no_place_index(env):
    # F1 + F1 labels its idempotents e and e_2: neither is a basis
    # idempotent, so a grid place is a mismatch row and a single-index
    # place is refused
    (grid,) = parse_catalog("algebra Q = F1 + F1\n  expect peirce e_2 N11\nend\n")
    a = resolve(grid, env)
    assert a.labels == ("e", "e_2")
    assert check_peirce_placements(grid, a) == [("e_2", "N11", "N00", False)]
    (single,) = parse_catalog("algebra Q = F1 + F1\n  expect peirce e_2 N1\nend\n")
    with pytest.raises(CatalogError, match="^Q: single-index places need one idempotent$"):
        check_peirce_placements(single, resolve(single, env))


def test_single_places_are_the_grid_of_one_idempotent(entries, env):
    # N0, Nhalf and N1 of the one idempotent e1 are N00, N01 and N11
    grid = {"N0": "N00", "Nhalf": "N01", "N1": "N11"}
    checked = 0
    for entry in entries:
        places = entry.expected.peirce
        if not places or not all(p in grid for _, p in places):
            continue
        a = env[entry.name]
        as_grid = entry._replace(expected=entry.expected._replace(
            peirce=tuple((label, grid[p]) for label, p in places)))
        rows = check_peirce_placements(as_grid, a)
        assert rows == [(label, grid[p], grid[p], True) for label, p in places], entry.name
        checked += len(rows)
    assert checked == 36


def test_peirce_reader_matches_the_hull_grid(entries, env):
    # every basis label of every entry, as a grid place, and as a single
    # place where the entry has one basis idempotent, reads as in the grid
    # of the unital hull
    singles = 0
    for entry in entries:
        a = env[entry.name]
        places = ["N00"]
        if sum(l[:1] == "e" and _is_count(l[1:]) and a.table[i][i] == a.basis_vector(i)
               for i, l in enumerate(a.labels)) == 1:
            places.append("N0")
            singles += 1
        for place in places:
            probe = entry._replace(expected=entry.expected._replace(
                peirce=tuple((label, place) for label in a.labels)))
            rows = check_peirce_placements(probe, a)
            assert len(rows) == a.dim
            assert rows == reference_peirce_placements(probe, a), (entry.name, place)
    assert singles > 0


def placements_of(text):
    (entry,) = parse_catalog(text)
    return check_peirce_placements(entry, resolve(entry, {}))


def test_a_basis_element_across_two_peirce_spaces_is_in_no_place():
    # m = e1 + n1 for B2's e1, n1: e1 m = (e1 + m)/2 is no multiple of m
    (entry,) = parse_catalog("algebra M\n  dim 2\n  basis e1 m\n  e1*e1 = e1\n"
                             "  e1*m = 1/2 e1 + 1/2 m\n  m*m = m\n"
                             "  expect peirce m N01\n  expect peirce e1 N11\nend\n")
    a = resolve(entry, {})
    rows = [("m", "N01", None, False), ("e1", "N11", "N11", True)]
    assert check_peirce_placements(entry, a) == reference_peirce_placements(entry, a) == rows
    assert verify_catalog([entry]).errata == [("M", "peirce m: recorded N01, computed None")]


def test_hostile_peirce_records():
    # a wrong place is a mismatch row; a record that cannot be read at all
    # raises an error that names the entry
    assert placements_of(WRONG_PLACE) == [("n1", "N11", "N01", False)]
    with pytest.raises(CatalogError,
                       match="^O: basis idempotents e1 and e2 are not orthogonal$"):
        placements_of(NOT_ORTHOGONAL)
    with pytest.raises(CatalogError,
                       match="^W: unknown basis label 'q' in expect peirce$"):
        placements_of(UNKNOWN_LABEL)
    with pytest.raises(NonJordanError,
                       match="^Peirce decomposition requires a Jordan algebra$"):
        placements_of(NOT_JORDAN)
    # e0 would name the complement, and of e1 and e01, both index 1, the
    # later would hide the other
    with pytest.raises(CatalogError, match="^Z: basis idempotent e0 has index 0,"
                                           " which places keep for the complement$"):
        placements_of(INDEX_ZERO)
    with pytest.raises(CatalogError, match="^S: basis idempotents e1 and e01 share index 1$"):
        placements_of(SHARED_INDEX)


def test_labels_override_length_checked(env):
    (entry,) = parse_catalog("algebra X = B3 + B3\n  labels a b c\nend\n")
    with pytest.raises(Exception):
        resolve(entry, env)


def test_summary_lines_are_deterministic(entries):
    r1 = verify_catalog(entries).summary_lines()
    r2 = verify_catalog(entries).summary_lines()
    assert r1 == r2
    assert r1[0].startswith("F1 ")
