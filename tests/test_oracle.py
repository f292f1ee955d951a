from __future__ import annotations

import pytest

from layerlat.chain import Chain
from layerlat.decompose import roundtrip_table, table_of_chain
from layerlat.errors import BoundExceeded, NotResiduated, ParseError
from layerlat.fixtures import finite_bunch
from layerlat.oracle import (CayleyTable, brute_residuum, check_flea_axioms,
                             enumerate_finite_chains, format_table_csv,
                             parse_table_csv)

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
    assert len(enumerate_finite_chains(1)) == 1
    twos = enumerate_finite_chains(2)
    assert len(twos) == 1 and twos[0].falsum == twos[0].unit - 1
    threes = enumerate_finite_chains(3)
    assert threes == [S3_TABLE]
    fours = enumerate_finite_chains(4)
    assert len(fours) == 1
    assert check_flea_axioms(fours[0]).first("odd-or-even").subject == "even"
    fives = enumerate_finite_chains(5)
    assert len(fives) == 1
    assert check_flea_axioms(fives[0]).first("odd-or-even").subject == "odd"


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_finite_chains(11)
    with pytest.raises(ValueError):
        enumerate_finite_chains(0)


def seed_search_tables(n: int, t: int, f: int) -> list[CayleyTable]:
    # The search as it stood before the forced placement and the involution
    # pruning, kept literally as a reference.
    grid: list[list[int | None]] = [[None] * n for _ in range(n)]

    def put(i: int, j: int, v: int) -> None:
        grid[i][j] = v
        grid[j][i] = v

    for x in range(n):
        put(t, x, x)
        put(0, x, 0)
    row_order = list(range(t - 1, 0, -1)) + list(range(t + 1, n))
    cells: list[tuple[int, int]] = []
    seen_cells = set()
    for r in row_order:
        for c in range(1, n):
            key = (min(r, c), max(r, c))
            if c == t or key in seen_cells or grid[r][c] is not None:
                continue
            seen_cells.add(key)
            cells.append((r, c))
    results: list[CayleyTable] = []

    def assoc_ok(i: int, j: int) -> bool:
        v = grid[i][j]
        gi, gj = grid[i], grid[j]
        for k in range(n):
            jk = gj[k]
            if jk is not None:
                left, right = grid[v][k], gi[jk]
                if left is not None and right is not None and left != right:
                    return False
                ik = gi[k]
                if ik is not None:
                    left = grid[ik][j]
                    if left is not None and gi[jk] is not None and left != gi[jk]:
                        return False
        return True

    def rec(pos: int) -> None:
        if pos == len(cells):
            tbl = CayleyTable(n, tuple(tuple(row) for row in grid), t, f)
            if check_flea_axioms(tbl).ok:
                results.append(tbl)
            return
        i, j = cells[pos]
        lo, hi = 0, n - 1
        if i > 0 and grid[i - 1][j] is not None:
            lo = max(lo, grid[i - 1][j])
        if j > 0 and grid[i][j - 1] is not None:
            lo = max(lo, grid[i][j - 1])
        if i + 1 < n and grid[i + 1][j] is not None:
            hi = min(hi, grid[i + 1][j])
        if j + 1 < n and grid[i][j + 1] is not None:
            hi = min(hi, grid[i][j + 1])
        for v in range(lo, hi + 1):
            put(i, j, v)
            if assoc_ok(i, j):
                rec(pos + 1)
        grid[i][j] = None
        if i != j:
            grid[j][i] = None

    rec(0)
    return results


def seed_enumerate(n: int) -> list[CayleyTable]:
    """Every unit t with falsum t or t-1, deduplicated."""
    results: list[CayleyTable] = []
    seen = set()
    for t in range(n):
        falsums = [t] + ([t - 1] if t >= 1 else [])
        for f in falsums:
            for tbl in seed_search_tables(n, t, f):
                key = (tbl.product, tbl.unit, tbl.falsum)
                if key not in seen:
                    seen.add(key)
                    results.append(tbl)
    return results


@pytest.mark.parametrize("n", range(1, 7))
def test_forced_placement_matches_unpruned_search(n):
    # no table exists outside t = n // 2, f = n-1-t
    assert enumerate_finite_chains(n) == seed_enumerate(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_agrees_with_bunch_construction(n):
    tables = enumerate_finite_chains(n, bound=10)
    assert tables == [table_of_chain(Chain(finite_bunch(n)))[0]]
    for tbl in tables:
        assert check_flea_axioms(tbl).ok
        assert roundtrip_table(tbl).result.bunch == finite_bunch(n)


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
