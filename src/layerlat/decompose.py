"""Decomposition of finite extensional chains into bunches, and round-trip
verification in both directions.

`roundtrip_table` decomposes a table by classification, not by reading it.
By the representation theorem a lawful n-element table is the table of an
odd or even involutive FL_e-chain whose bunch has finite, so trivial, layer
groups.  Then every step is the unit map, every class-I subgroup is whole,
and G2 rules out class J (the trivial group is not discrete).  Class O can
only be the least layer and a class-I layer carries two points, so the one
such bunch with n points, up to layer names, is `fixtures.finite_bunch(n)`.
The round trip builds that candidate's chain, maps index i to the i-th
point of its sorted carrier, and compares every product cell and both
constants.  A match certifies every clause of the oracle, associativity
included, with no n^3 scan; the oracle runs, once, only on a mismatch, and
names the first violation.  The classification's second consumer is
`oracle.enumerate_finite_chains`, which returns that one table.

On symbolic chains the decomposition is verified as a family of identities
instead of re-derived, since the chain already carries its bunch:
`recover_bunch_samples` returns a `report.Report`, one `Check` per identity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice

from . import ogroup as og
from .bunch import Bunch
from .chain import Chain, ChainElement, _new
from .errors import (AxiomFailure, InfiniteChain, NotInvolutive, NotOddOrEven,
                     RoundTripMismatch, WindowTooSmall)
from .fixtures import finite_bunch
from .oracle import CayleyTable, check_flea_axioms
from .report import RECOVER, Check, Report


def table_of_chain(chain: Chain) -> tuple[CayleyTable, list[ChainElement]]:
    """Extensional table of a finite chain; carrier listed ascending."""
    if not chain.is_finite:
        raise InfiniteChain("chain has a nontrivial layer group; use window_table")
    elems = sorted(chain.enumerate_elements(), key=cmp_to_key(chain.compare))
    return _table_for(chain, elems), elems


def window_table(chain: Chain, limit: int) -> tuple[CayleyTable, list[ChainElement]]:
    """Table over the first ``limit`` enumerated elements, sorted ascending.

    Products outside the window are floored to the greatest window element
    below them (the least one when even that fails), so the export stays
    closed; window tables are an inspection aid, not a lawful algebra.
    """
    if limit < 1:
        raise ValueError("window must contain at least one element")
    elems = sorted(islice(chain.enumerate_elements(), limit),
                   key=cmp_to_key(chain.compare))
    return _table_for(chain, elems), elems


def _table_for(chain: Chain, elems: list[ChainElement]) -> CayleyTable:
    # a finite chain's carrier is closed under mul, so only windows floor
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    key = cmp_to_key(chain.compare)

    def locate(z: ChainElement) -> int:
        i = index.get(z)
        if i is not None:
            return i
        # greatest window element <= z, floored to the window bottom
        return max(bisect_right(elems, key(z), key=key) - 1, 0)

    product = tuple(tuple(locate(chain.mul(x, y)) for y in elems) for x in elems)
    t, f = chain.constants()
    if t not in index:
        raise WindowTooSmall("unit element outside the window")
    if f not in index:
        raise WindowTooSmall("falsum element outside the window")
    return CayleyTable(n, product, index[t], index[f])


# ---------------------------------------------------------------------------
# finite decomposition


@dataclass
class DecompositionResult:
    bunch: Bunch
    layer_assignment: dict[int, ChainElement]
    layer_of: dict[int, str]


# the error raised for a table's first axiom violation, by its clause
_AXIOM_ERRORS = {"involution": NotInvolutive, "odd-or-even": NotOddOrEven}


def decompose_table(tbl: CayleyTable) -> DecompositionResult:
    """Split a lawful table into its skeleton, partition, and layer data:
    those of `finite_bunch(tbl.size)`, the one bunch a lawful table of that
    size can have (see the module docstring), with index i assigned the
    i-th point of its sorted carrier.  Certified by `roundtrip_table`."""
    return roundtrip_table(tbl).result


@dataclass
class RoundTripWitness:
    result: DecompositionResult
    mapping: dict[int, ChainElement]
    size: int


def roundtrip_table(tbl: CayleyTable) -> RoundTripWitness:
    """Explicit order- and product-preserving bijection between ``tbl`` and
    the chain of `finite_bunch(tbl.size)`, the only lawful chain of that
    size (see the module docstring).  The bijection is the certificate that
    ``tbl`` satisfies every axiom.  When the comparison fails,
    `check_flea_axioms` runs once and its first violation is raised, else
    the original error."""
    try:
        return _certify(tbl)
    except Exception:
        for bad in check_flea_axioms(tbl).violations()[:1]:
            raise _AXIOM_ERRORS.get(bad.clause, AxiomFailure)(bad.detail, bad.witness) from None
        raise


def _certify(tbl: CayleyTable) -> RoundTripWitness:
    chain = Chain(finite_bunch(tbl.size))
    # distinct points in ascending order: a bijection onto the carrier that
    # preserves order by construction
    elems = sorted(chain.enumerate_elements(), key=cmp_to_key(chain.compare))
    if len(elems) != tbl.size:
        raise RoundTripMismatch(f"candidate chain has {len(elems)} points, not {tbl.size}")
    mapping = dict(enumerate(elems))
    mul, p = chain.mul, tbl.product
    for i, x in enumerate(elems):
        row = p[i]
        for j, y in enumerate(elems):
            if mul(x, y) != mapping[row[j]]:
                raise RoundTripMismatch(f"product mismatch at cell ({i}, {j})")
    t, f = chain.constants()
    if mapping[tbl.unit] != t or mapping[tbl.falsum] != f:
        raise RoundTripMismatch("constants not preserved")
    layer_of = {i: x.layer for i, x in enumerate(elems)}
    return RoundTripWitness(DecompositionResult(chain.bunch, mapping, layer_of), mapping, tbl.size)


# ---------------------------------------------------------------------------
# symbolic round trip: identities checked on samples


def recover_bunch_samples(chain: Chain, samples: int = 1000) -> Report:
    """Verify, on sampled elements, that the decomposition equations re-read
    the bunch off the reconstructed chain:

    a) the local unit of x is the idempotent of its layer;
    b) on class-I layers, being invertible within the layer coincides with
       being an undotted subgroup member, and with the complement-shift test;
    c) multiplying by a higher layer's idempotent realizes the transition on
       undotted elements;
    d) a dotted element is its original times the layer complement, and the
       dot projection recovers the original.

    The report has one sampled `Check` per identity, with the number of
    elements (for c, element-layer pairs) it was tried on and its first
    failure; the report's ``samples`` is the number of elements plus pairs.
    A layer's elements are the chain's own first layer blocks, dotted
    companions included, and (c) applies the chain's own `Chain.lift`.
    """
    if samples < 0:
        raise ValueError("samples must be at least 0")
    b = chain.bunch
    per_layer = max(1, samples // len(b.skeleton)) if samples else 0
    pools = {u: [x for block in islice(chain._layer_blocks(u), per_layer) for x in block]
             for u in b.skeleton}

    idem = {u: ChainElement(u, og.g_unit(b.groups[u]), False) for u in b.skeleton}
    tried = dict.fromkeys("abcd", 0)
    first: dict[str, str] = {}
    fail = first.setdefault

    for u in b.skeleton:
        member = og.member_fn(b.subgroups[u]) if b.partition[u] == "I" else None
        inv = og.inv_fn(b.groups[u])
        comp_u = chain.negate(idem[u])
        tried["a"] += len(pools[u])
        tried["b"] += len(pools[u]) if member is not None else 0
        for x in pools[u]:
            if chain.residuum(x, x) != idem[u]:
                fail("a", f"local unit of {x} is not the layer idempotent")
            if member is not None:
                expected = (not x.dotted) and member(x.g)
                shifted = chain.mul(x, comp_u)
                if (chain.compare(shifted, x) < 0) != expected:
                    fail("b", f"complement-shift test wrong at {x}")
                candidate = _new(ChainElement, (u, inv(x.g), False))
                if (chain.mul(x, candidate) == idem[u]) != expected:
                    fail("b", f"invertibility wrong at {x}")
            if x.dotted:
                tried["d"] += 1
                original = _new(ChainElement, (u, x.g, False))
                if chain.mul(original, comp_u) != x:
                    fail("d", f"{x} is not its original times the complement")
                if chain.zeta(u, u, x) != x.g:
                    fail("d", f"dot projection broken at {x}")
        iu = b.index(u)
        for v in b.skeleton[iu:]:
            tr = chain.lift(u, v)
            for x in pools[u]:
                if x.dotted:
                    continue
                tried["c"] += 1
                if chain.mul(idem[v], x) != _new(ChainElement, (v, tr(x.g), False)):
                    fail("c", f"idempotent multiplication is not the transition at {x} -> {v}")
    checks = [Check(f"({k})", subject, k not in first, "sampled", first.get(k, ""), tried[k])
              for k, subject in (("a", "local units"), ("b", "class-I invertibility"),
                                 ("c", "idempotent transitions"), ("d", "dotted elements"))]
    return Report(checks, tried["a"] + tried["c"], RECOVER)
