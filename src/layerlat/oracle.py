"""Brute-force ground truth on finite carriers.

A CayleyTable is an extensional chain: carrier 0 < 1 < ... < n-1, an n-by-n
product table, and unit/falsum indices.  Everything here is checked by
exhaustive search and is deliberately independent of the bunch machinery, so
it can act as an oracle for it.  `check_flea_axioms` returns a
`report.Report`, one exact `Check` per law.

The enumerator searches one (unit, falsum) placement.  In a finite
involutive chain x -> x->f is an order-reversing bijection of 0 < ... < n-1,
hence x -> n-1-x; so f = n-1-t, and odd or even forces t = n // 2.  This and
the involution row bound in _search_tables are elementary order theory, not
the representation theorem, so the oracle stays independent of the bunch code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded, NotResiduated, ParseError
from .report import AXIOMS, Check, Report


@dataclass(frozen=True)
class CayleyTable:
    size: int
    product: tuple[tuple[int, ...], ...]
    unit: int
    falsum: int


def format_table_csv(tbl: CayleyTable) -> str:
    lines = [f"{tbl.size},{tbl.unit},{tbl.falsum}"]
    lines += [",".join(str(v) for v in row) for row in tbl.product]
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> CayleyTable:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty table document")
    head = lines[0].split(",")
    if len(head) != 3:
        raise ParseError("line 1: expected 'n,unit_index,falsum_index'")
    try:
        n, unit, falsum = (int(v) for v in head)
    except ValueError:
        raise ParseError("line 1: indices must be integers") from None
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} product rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            row = tuple(int(v) for v in ln.split(","))
        except ValueError:
            raise ParseError(f"line {i}: entries must be integers") from None
        if len(row) != n or any(v < 0 or v >= n for v in row):
            raise ParseError(f"line {i}: expected {n} indices in range 0..{n - 1}")
        rows.append(row)
    if not (0 <= unit < n and 0 <= falsum < n):
        raise ParseError("line 1: unit/falsum index out of range")
    return CayleyTable(n, tuple(rows), unit, falsum)


def brute_residuum(tbl: CayleyTable, x: int, z: int) -> int:
    """Greatest v with x*v <= z, straight from the definition."""
    row = tbl.product[x]
    best = -1
    for v in range(tbl.size):
        if row[v] <= z:
            best = v
    if best < 0:
        raise NotResiduated(f"no v with {x}*v <= {z}")
    return best


def check_flea_axioms(tbl: CayleyTable) -> Report:
    """Exhaustively check the chain-monoid axioms plus involutivity and the
    odd/even falsum shape: one exact `Check` per law, carrying its first
    witnessing tuple and the message `decompose_table` raises for it.  The
    involution check needs the residual complement, so it is left out when
    residuation fails; the odd-or-even check's subject is the shape found."""
    n, p, t, f = tbl.size, tbl.product, tbl.unit, tbl.falsum
    checks: list[Check] = []

    def law(name: str, witness: tuple | None, subject: str = "table",
            message: str | None = None) -> None:
        detail = "" if witness is None else message or f"table fails {name} at {witness}"
        checks.append(Check(name, subject, witness is None, "exact", detail, witness=witness))

    rows = range(n)
    law("unit", next(((t, x) for x in rows if p[t][x] != x), None))
    law("commutativity", next(((x, y) for x in rows for y in range(x + 1, n)
                               if p[x][y] != p[y][x]), None))
    law("associativity", next(((x, y, z) for x in rows for y in rows for z in rows
                               if p[p[x][y]][z] != p[x][p[y][z]]), None))
    law("monotonicity", next(((x, y, y + 1) for x in rows for y in range(n - 1)
                              if p[x][y] > p[x][y + 1]), None))
    unresiduated = next(((x, z) for x in rows for z in rows
                         if not any(p[x][v] <= z for v in rows)), None)
    law("residuation", unresiduated)
    if unresiduated is None:
        neg = [brute_residuum(tbl, x, f) for x in rows]
        moved = next(((x, neg[x], neg[neg[x]]) for x in rows if neg[neg[x]] != x), None)
        law("involution", moved, message=None if moved is None else
            f"double complement moves {moved[0]} to {moved[2]}")
    shape = "odd" if f == t else "even" if f == t - 1 else "neither"
    law("odd-or-even", (t, f) if shape == "neither" else None, shape,
        f"falsum {f} is neither unit {t} nor its lower cover")
    return Report(checks, 0, AXIOMS)


def _search_tables(n: int) -> list[CayleyTable]:
    # Search the forced placement t = n // 2, f = n-1-t.  Prefill the unit row
    # and the absorbing bottom row, then backtrack over the remaining cells.
    # Rows adjacent to the unit row are filled first so its values bound them
    # tightly; each assignment is pruned by monotonicity against known
    # neighbours, by the involution (x->z = not(x * not z) gives x*y <= z iff
    # x*(n-1-z) <= n-1-y, so r*a = v puts r*c <= n-1-a if c <= n-1-v and
    # r*c >= n-a otherwise) and by every associativity instance that the
    # assignment completes.  The exhaustive checker still accepts or rejects
    # each finished table.
    t = n // 2
    f = n - 1 - t
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
        for r, c in ((i, j), (j, i)):
            for a, v in enumerate(grid[r]):
                if v is not None and c <= n - 1 - v:
                    hi = min(hi, n - 1 - a)
                elif v is not None:
                    lo = max(lo, n - a)
        for v in range(lo, hi + 1):
            put(i, j, v)
            if assoc_ok(i, j):
                rec(pos + 1)
        grid[i][j] = None
        if i != j:
            grid[j][i] = None

    rec(0)
    return results


def enumerate_finite_chains(n: int, bound: int = 10) -> list[CayleyTable]:
    """All odd-or-even involutive chain tables on n elements, by backtracking.

    The carrier is the fixed chain 0 < ... < n-1, so order-isomorphism is the
    identity; the one forced placement never yields a table twice.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > bound:
        raise BoundExceeded(f"size {n} above the configured bound {bound}")
    return _search_tables(n)
