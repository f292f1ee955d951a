"""Brute-force ground truth on finite carriers.

A CayleyTable is an extensional chain: carrier 0 < 1 < ... < n-1, an n-by-n
product table, and unit/falsum indices.  `check_flea_axioms` decides every
law by exhaustive search and is deliberately independent of the bunch
machinery, so it can act as an oracle for it; so are `brute_residuum` and the
CSV codec.  `check_flea_axioms` returns a `report.Report`, one exact `Check`
per law.

`enumerate_finite_chains` is the exception: it lists the finite chains by
the classification in `decompose`, not by search.  The backtracking table
search that checks that classification independently lives in the tests.
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


def enumerate_finite_chains(n: int, bound: int = 10) -> list[CayleyTable]:
    """All odd-or-even involutive chain tables on n elements.

    By the representation theorem (see `decompose`) there is exactly one:
    the table of `fixtures.finite_bunch(n)`'s chain, on the fixed carrier
    0 < ... < n-1, so order-isomorphism is the identity.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > bound:
        raise BoundExceeded(f"size {n} above the configured bound {bound}")
    # imported here: decompose imports this module, and the checker above
    # stays free of the bunch code
    from .chain import Chain
    from .decompose import table_of_chain
    from .fixtures import finite_bunch
    return [table_of_chain(Chain(finite_bunch(n)))[0]]
