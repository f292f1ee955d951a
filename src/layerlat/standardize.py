"""Rational-interval placement of bounded chain prefixes and the lower
sup-approximation of the extended product.

cantor_map pins bottom to 0 and top to 1, then walks the chain enumeration
and drops each new element at the midpoint of its placed neighbours, giving
a strictly order-preserving map of the prefix into Q [0, 1].  sup_extend
approximates the left-continuous extension of the product: the supremum of
placed products over placed points strictly below the query pair, with a
budgeted closure that places missing products first.  Results are exact
rationals and only ever lower approximations; nothing here claims the limit.

The closure (`extend_with_products`) is one scan of the placed points in
placement order, each multiplied by itself and by every point placed before
it, the products it places joining the end of the scan; it multiplies each
unordered pair at most once.  The supremum table (`_extended_tables`) uses
only that the product is commutative, never that it is monotone (a `Chain`
can be built from a structurally sound bunch that fails `validate`): it keeps
the lower triangle, n(n + 1)/2 maxima of product ranks for n placed points,
and a query reads the one cell at its larger and its smaller count.

Every placed value is dyadic: a placement starts from 0 and 1, and
`cantor_map` and `extend_with_products` place each new point at the midpoint
of two placed ones.  `RationalPlacement.place` takes the midpoint of two
power-of-two denominators on `Fraction`'s ``_numerator`` and ``_denominator``
slots, by one shift and one strip of trailing zeros (``(a + b) / 2`` spends
about ten times as long on gcds at 2,000 bits), and keeps ``(a + b) / 2``
for any other pair.  Either way the result is the operator's, slots and hash.
This is the one module that reads or writes those slots: placement values
are points of [0, 1], not group elements, and stay `Fraction`s.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, repeat

from .chain import Chain, ChainElement, format_element
from .errors import TrivialChain, Unbounded
from .ogroup import digits


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
        value = _midpoint(self._q[self._sorted[lo - 1]], self._q[self._sorted[lo]])
        self._q[x] = value
        self._sorted.insert(lo, x)
        return value

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        for x in self._sorted:
            value = self._q[x]
            writer.writerow([format_element(self.chain, x),
                             digits(value.numerator), digits(value.denominator)])
        return out.getvalue()


def _fraction(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, as 3.12's ``Fraction._from_coprime_ints``."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


def _midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b) / 2, by one shift and one strip of trailing zeros when both
    denominators are powers of two (module docstring)."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    if da & (da - 1) or db & (db - 1):
        return (a + b) / 2
    if da < db:
        na, da, nb, db = nb, db, na, da
    s = na + (nb << (da.bit_length() - db.bit_length()))
    if not s:
        return _fraction(0, 1)
    k = min((s & -s).bit_length() - 1, da.bit_length())  # 2 * da is 2 ** that
    return _fraction(s >> k, (da << 1) >> k)


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
    placement and the budget, never on any later query: each placed point,
    in placement order, is multiplied by itself and by every point placed
    before it, and a product not yet placed is placed and joins the end of
    the scan, until ``depth`` products are placed or the scan ends.  Each
    unordered pair is multiplied at most once.
    """
    work = placement.copy()
    order = list(work._q)  # placement order: dicts keep insertion order
    mul, placed = chain.mul, work._q
    budget = depth
    i = 0
    while budget > 0 and i < len(order):
        x = order[i]
        for y in order[:i + 1]:
            z = mul(x, y)
            if z not in placed:
                work.place(z)
                order.append(z)
                budget -= 1
                if budget == 0:
                    break
        i += 1
    return work


def _extended_tables(chain: Chain, placement: RationalPlacement,
                     depth: int) -> tuple[list[Fraction], list[list[int]]]:
    """The extended placement's values ``qs`` in ascending order and the
    lower-triangular table ``best``: for j <= i, best[i][j] is the largest
    rank r such that qs[r] is the value of a placed product of the k-th and
    l-th placed points with l <= k <= i and l <= j, or -1 when no such
    product is placed.

    ``q`` is strictly increasing along ``_sorted``, so a product is stored by
    its rank there, and the running maximum of ranks picks out the same
    product as the running maximum of its values would.  ``mul`` is
    commutative, so each unordered pair is multiplied once, and row i of
    ``best`` is the running maximum of row i's products merged with row
    i - 1 (its last cell standing for the diagonal cell it lacks); the table
    holds n(n + 1)/2 cells.
    """
    cached = placement._ext_cache.get(depth)
    if cached is not None:
        return cached
    work = extend_with_products(chain, placement, depth)
    elems = work._sorted
    qs = [work._q[e] for e in elems]
    rank = {e: r for r, e in enumerate(elems)}.get
    mul = chain.mul
    best = []
    above = [-1]
    for i, x in enumerate(elems, 1):
        prods = map(rank, map(mul, repeat(x, i), elems), repeat(-1))
        row = list(accumulate(map(max, prods, above), max))
        best.append(row)
        above = row + row[-1:]
    placement._ext_cache[depth] = (qs, best)
    return qs, best


def sup_extend(chain: Chain, placement: RationalPlacement, a: Fraction,
               b: Fraction, depth: int = 0) -> Fraction:
    """max of q(x*y) over placed x, y with q(x) < a and q(y) < b.

    The closure that places up to ``depth`` missing products is
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
    # the rectangle's products are those of the pairs with the larger point
    # among the first max(count) and the smaller among the first min(count)
    r = best[max(count_a, count_b) - 1][min(count_a, count_b) - 1]
    return qs[r] if r >= 0 else Fraction(0)
