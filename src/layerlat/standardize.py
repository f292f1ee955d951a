"""Rational-interval placement of bounded chain prefixes and the lower
sup-approximation of the extended product.

cantor_map pins bottom to 0 and top to 1, then walks the chain enumeration
and drops each new element at the midpoint of its placed neighbours, giving
a strictly order-preserving map of the prefix into Q [0, 1].  sup_extend
approximates the left-continuous extension of the product: the supremum of
placed products over placed points strictly below the query pair, with a
budgeted closure pass that places missing products first.  Results are exact
rationals and only ever lower approximations; nothing here claims the limit.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate

from .chain import Chain, ChainElement, format_element
from .errors import TrivialChain, Unbounded


@dataclass
class RationalPlacement:
    """A strictly order-preserving finite partial map into Q [0, 1]."""

    chain: Chain
    bottom: ChainElement
    top: ChainElement
    _q: dict[ChainElement, Fraction] = field(default_factory=dict)
    _sorted: list[ChainElement] = field(default_factory=list)

    def __post_init__(self):
        if not self._q:
            self._q = {self.bottom: Fraction(0), self.top: Fraction(1)}
            self._sorted = [self.bottom, self.top]
        self._ext_cache: dict[int, tuple[list[Fraction], list[list[int]]]] = {}

    def __len__(self) -> int:
        return len(self._q)

    def __contains__(self, x: ChainElement) -> bool:
        return x in self._q

    def q(self, x: ChainElement) -> Fraction:
        return self._q[x]

    def placed(self) -> list[tuple[ChainElement, Fraction]]:
        return [(x, self._q[x]) for x in self._sorted]

    def copy(self) -> "RationalPlacement":
        return RationalPlacement(self.chain, self.bottom, self.top,
                                 dict(self._q), list(self._sorted))

    def place(self, x: ChainElement) -> Fraction:
        """Midpoint placement between the current neighbours; idempotent."""
        existing = self._q.get(x)
        if existing is not None:
            return existing
        self._ext_cache.clear()
        key = cmp_to_key(self.chain.compare)
        lo = bisect_left(self._sorted, key(x), key=key)
        if lo == 0 or lo == len(self._sorted):
            raise Unbounded(f"{x} falls outside the pinned endpoints")
        value = (self._q[self._sorted[lo - 1]] + self._q[self._sorted[lo]]) / 2
        self._q[x] = value
        self._sorted.insert(lo, x)
        return value

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        for x in self._sorted:
            value = self._q[x]
            # str(Decimal(n)) is exact for an int and, unlike str(n), not
            # bounded by the interpreter's int-to-string digit limit
            writer.writerow([format_element(self.chain, x),
                             str(Decimal(value.numerator)), str(Decimal(value.denominator))])
        return out.getvalue()


def cantor_map(chain: Chain, prefix: int) -> RationalPlacement:
    """Place the first ``prefix`` enumerated elements (endpoints included)."""
    if prefix < 2:
        raise ValueError("prefix must cover at least the two endpoints")
    bounds = chain.bounds()
    if bounds is None:
        raise Unbounded("rational placement needs a bounded chain")
    top, bottom = bounds
    if top == bottom:
        raise TrivialChain("one-element chains have no distinct endpoints")
    placement = RationalPlacement(chain, bottom, top)
    for x in chain.enumerate_elements():
        if len(placement) >= prefix:
            break
        if x == bottom or x == top:
            continue
        placement.place(x)
    return placement


def extend_with_products(chain: Chain, placement: RationalPlacement,
                         depth: int) -> RationalPlacement:
    """A copy of ``placement`` with up to ``depth`` missing products placed.

    Pairs are scanned in placement order, so the result depends only on the
    placement and the budget, never on any later query.
    """
    work = placement.copy()
    budget = depth
    progressed = True
    while budget > 0 and progressed:
        progressed = False
        snapshot = list(work._q)  # placement order: dicts keep insertion order
        for i, x in enumerate(snapshot):
            for y in snapshot[:i + 1]:
                z = chain.mul(x, y)
                if z not in work:
                    work.place(z)
                    budget -= 1
                    progressed = True
                    if budget == 0:
                        break
            if budget == 0:
                break
    return work


def _extended_tables(chain: Chain, placement: RationalPlacement,
                     depth: int) -> tuple[list[Fraction], list[list[int]]]:
    """The extended placement's values ``qs`` in ascending order and the table
    ``best``: best[i][j] is the largest rank r such that qs[r] is the value of
    a placed product x * y with x among the first i + 1 and y among the first
    j + 1 placed points, or -1 when no such product is placed.

    ``q`` is strictly increasing along ``_sorted``, so a product is stored by
    its rank there, and the running maximum of ranks picks out the same
    product as the running maximum of its values would.
    """
    cached = placement._ext_cache.get(depth)
    if cached is not None:
        return cached
    work = extend_with_products(chain, placement, depth)
    elems = work._sorted
    qs = [work._q[e] for e in elems]
    rank = {e: r for r, e in enumerate(elems)}
    n = len(elems)
    prods = [[-1] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j in range(i + 1):
            prods[i][j] = prods[j][i] = rank.get(chain.mul(x, elems[j]), -1)
    best = []
    above = [-1] * n
    for row in prods:
        above = list(accumulate(map(max, row, above), max))
        best.append(above)
    placement._ext_cache[depth] = (qs, best)
    return qs, best


def sup_extend(chain: Chain, placement: RationalPlacement, a: Fraction,
               b: Fraction, depth: int = 0) -> Fraction:
    """max of q(x*y) over placed x, y with q(x) < a and q(y) < b.

    The closure pass that places up to ``depth`` missing products is
    deterministic and does not depend on (a, b), so the result is exactly
    monotone in a, in b, and in depth.  The caller's placement is never
    mutated (the extension happens on an internal copy, memoized per depth).
    Empty suprema return 0, the image of the bottom.
    """
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("query points must lie in [0, 1]")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    qs, best = _extended_tables(chain, placement, depth)
    count_a = bisect_left(qs, a)
    count_b = bisect_left(qs, b)
    if count_a == 0 or count_b == 0:
        return Fraction(0)
    r = best[count_a - 1][count_b - 1]
    return qs[r] if r >= 0 else Fraction(0)
