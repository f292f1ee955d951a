from __future__ import annotations

import pytest

from layerlat.decompose import roundtrip_table
from layerlat.errors import BoundExceeded, NotResiduated, ParseError
from layerlat.fixtures import finite_bunch
from layerlat.oracle import (CayleyTable, brute_residuum, check_flea_axioms,
                             enumerate_finite_chains, format_table_csv,
                             parse_table_csv)
from table_search import lawful_tables, search_tables

S3_TABLE = CayleyTable(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)), 1, 1)


def test_s3_table_passes_and_is_odd():
    report = check_flea_axioms(S3_TABLE)
    assert report.ok and report.first("odd-or-even").subject == "odd"


def test_one_element_table_is_odd():
    report = check_flea_axioms(CayleyTable(1, ((0,),), 0, 0))
    assert report.ok and report.first("odd-or-even").subject == "odd"


def test_top_times_bottom_equals_top_is_caught():
    broken = CayleyTable(3, ((0, 0, 2), (0, 1, 2), (2, 2, 2)), 1, 1)
    report = check_flea_axioms(broken)
    assert not report.ok
    laws = {c.clause for c in report.violations()}
    assert "residuation" in laws or "monotonicity" in laws
    assert report.first("residuation").witness == (2, 0) or not report.first("monotonicity").ok


def test_brute_residuum_examples():
    for z in range(3):
        assert brute_residuum(S3_TABLE, S3_TABLE.unit, z) == z
    assert brute_residuum(S3_TABLE, 2, 0) == 0  # top -> bottom = bottom
    with pytest.raises(NotResiduated):
        brute_residuum(CayleyTable(2, ((1, 1), (1, 1)), 1, 0), 0, 0)


def test_enumerate_counts_small():
    assert len(lawful_tables(1)) == 1
    twos = lawful_tables(2)
    assert len(twos) == 1 and twos[0].falsum == twos[0].unit - 1
    threes = lawful_tables(3)
    assert threes == [S3_TABLE]
    fours = lawful_tables(4)
    assert len(fours) == 1
    assert check_flea_axioms(fours[0]).first("odd-or-even").subject == "even"
    fives = lawful_tables(5)
    assert len(fives) == 1
    assert check_flea_axioms(fives[0]).first("odd-or-even").subject == "odd"


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_finite_chains(11)
    with pytest.raises(ValueError):
        enumerate_finite_chains(0)
    with pytest.raises(ValueError):  # the size is checked before the bound
        enumerate_finite_chains(0, bound=-1)


def seed_enumerate(n: int) -> list[CayleyTable]:
    """The seed's search: every unit t with falsum t or t-1, without the
    involution pruning, deduplicated."""
    results: list[CayleyTable] = []
    seen = set()
    for t in range(n):
        falsums = [t] + ([t - 1] if t >= 1 else [])
        for f in falsums:
            for tbl in search_tables(n, t, f, involution=False):
                key = (tbl.product, tbl.unit, tbl.falsum)
                if key not in seen:
                    seen.add(key)
                    results.append(tbl)
    return results


@pytest.mark.parametrize("n", range(1, 7))
def test_forced_placement_matches_unpruned_search(n):
    # no table exists outside t = n // 2, f = n-1-t, and the involution
    # pruning loses none at that placement
    assert lawful_tables(n) == seed_enumerate(n)


@pytest.mark.parametrize("n", [*range(1, 11), 41, 161])
def test_enumerate_agrees_with_bunch_construction(n):
    # one table, accepted by the exhaustive checker and decomposed back to
    # `finite_bunch(n)`; the search, where it is cheap, finds the same one
    tables = enumerate_finite_chains(n, bound=n)
    assert len(tables) == 1
    assert check_flea_axioms(tables[0]).ok
    assert roundtrip_table(tables[0]).result.bunch == finite_bunch(n)
    if n <= 10:
        assert tables == lawful_tables(n)


def test_table_csv_round_trip():
    text = format_table_csv(S3_TABLE)
    assert text.splitlines()[0] == "3,1,1"
    assert parse_table_csv(text) == S3_TABLE


def test_table_csv_rejects_malformed():
    with pytest.raises(ParseError):
        parse_table_csv("")
    with pytest.raises(ParseError, match="rows"):
        parse_table_csv("2,0,0\n0,1")
    with pytest.raises(ParseError, match="range"):
        parse_table_csv("2,1,0\n0,0\n0,9")
