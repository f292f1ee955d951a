"""The backtracking table search: the tests' independent reference for the
finite chains.

`layerlat.oracle.enumerate_finite_chains` builds its one table from the
classification, `fixtures.finite_bunch(n)`.  This search knows nothing of
bunches: it fills a product table cell by cell and keeps what the
exhaustive checker `check_flea_axioms` accepts, so a test that compares the
two is not comparing the classification with itself.

In a finite involutive chain x -> x->f is an order-reversing bijection of
0 < ... < n-1, hence x -> n-1-x; so f = n-1-t, and odd or even forces
t = n // 2.  That placement and the involution pruning below are elementary
order theory, not the representation theorem.
"""

from __future__ import annotations

from layerlat.oracle import CayleyTable, check_flea_axioms


def search_tables(n: int, t: int, f: int, involution: bool = True) -> list[CayleyTable]:
    """Every table on 0 < ... < n-1 with unit t and falsum f that passes
    `check_flea_axioms`.

    Prefill the unit row and the absorbing bottom row, then backtrack over
    the remaining cells.  Rows adjacent to the unit row are filled first so
    its values bound them tightly; each assignment is pruned by
    monotonicity against known neighbours, by every associativity instance
    that the assignment completes and, when ``involution`` is set, by the
    involution (x->z = not(x * not z) gives x*y <= z iff x*(n-1-z) <= n-1-y,
    so r*a = v puts r*c <= n-1-a if c <= n-1-v and r*c >= n-a otherwise).
    The unpruned search, the seed's, takes seconds from n = 10.
    """
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
        if involution:
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


def lawful_tables(n: int) -> list[CayleyTable]:
    """Every odd-or-even involutive chain table on n elements: the pruned
    search at the one forced placement t = n // 2, f = n-1-t."""
    return search_tables(n, n // 2, n - 1 - n // 2)
