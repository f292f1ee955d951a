"""Decomposition of finite extensional chains into bunches, and round-trip
verification in both directions.

Finite decomposition always produces trivial layer groups (a finite abelian
o-group is trivial), so every layer carries one element or, on class-I
layers, an undotted/dotted pair.  On symbolic chains the decomposition is
verified as a family of identities instead of re-derived, since the chain
already carries its bunch: `recover_bunch_samples` returns a `report.Report`,
one `Check` per identity.

`roundtrip_table` certifies a table without `check_flea_axioms`: it
decomposes the table and matches order, every product cell and both
constants with the chain of the decomposed bunch.  By the representation
theorem the chain of a valid bunch is an odd or even involutive FL_e-chain, so
a table isomorphic to it satisfies every clause of the oracle, associativity
included, with no n^3 scan.  The bunch is valid by construction but for G2:
its groups are trivial, its steps unit maps, its class-I subgroups whole and
its class O least, so structure, G1, G3, D1 and D2 hold (every hom fixes the
only element), and G2 fails exactly on a class-J layer (the trivial group is
not discrete).  The full oracle runs, once, only when the reconstruction
raises, and names the first violation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice

from . import ogroup as og
from .bunch import Bunch
from .chain import Chain, ChainElement
from .errors import (AxiomFailure, InfiniteChain, InternalInvariant, NotInvolutive,
                     NotOddOrEven, RoundTripMismatch, WindowTooSmall)
from .oracle import CayleyTable, brute_residuum, check_flea_axioms
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
    """Split a lawful table into its skeleton, partition, and layer data.

    Layers are the positive idempotents; each element lands in the layer of
    its local unit; an element of a class-I layer is dotted exactly when it
    is the shifted copy of an invertible one.  Certified by `roundtrip_table`.
    """
    return roundtrip_table(tbl).result


def _decompose(tbl: CayleyTable) -> DecompositionResult:
    n, p, t, f = tbl.size, tbl.product, tbl.unit, tbl.falsum
    neg = [brute_residuum(tbl, x, f) for x in range(n)]
    local_unit = [brute_residuum(tbl, x, x) for x in range(n)]

    kappa = [u for u in range(n) if u >= t and p[u][u] == u]
    if kappa != sorted(set(local_unit)):
        raise InternalInvariant("skeleton characterizations disagree")

    classes: dict[int, str] = {}
    for u in kappa:
        if u == t:
            classes[u] = "O" if f == t else ("I" if p[f][f] == f else "J")
        else:
            nu = neg[u]
            classes[u] = "I" if p[nu][nu] == nu else "J"

    layers: dict[int, list[int]] = {u: [] for u in kappa}
    for x in range(n):
        layers[local_unit[x]].append(x)

    names = {u: ("t" if i == 0 else f"u{i}") for i, u in enumerate(kappa)}
    assignment: dict[int, ChainElement] = {}
    for u in kappa:
        name = names[u]
        if classes[u] == "I":
            invertible = [x for x in layers[u] if p[x][neg[u]] < x]
            exists_inverse = [x for x in layers[u]
                              if any(p[x][y] == u for y in layers[u])]
            if invertible != exists_inverse:
                raise InternalInvariant("invertibility characterizations disagree")
            dotted = {p[x][neg[u]]: x for x in invertible}
            group_part = [x for x in layers[u] if x not in dotted]
            # the class-I layer operation, written with double residuation,
            # must collapse to the plain product on the trivial layer group
            twisted = brute_residuum(tbl, brute_residuum(tbl, p[u][u], u), u)
            if twisted != u:
                raise InternalInvariant("twisted layer product did not collapse")
            for shifted in dotted:
                assignment[shifted] = ChainElement(name, og.UNIT, True)
        else:
            group_part = list(layers[u])
        if group_part != [u]:
            raise InternalInvariant(f"layer group of idempotent {u} is not trivial")
        if brute_residuum(tbl, u, u) != u:
            raise InternalInvariant(f"idempotent {u} is not its own local unit")
        assignment[u] = ChainElement(name, og.UNIT, False)
    for u in kappa:
        for v in kappa:
            if u <= v and p[v][u] != v:
                raise InternalInvariant("idempotent multiplication is not the transition")

    skeleton = tuple(names[u] for u in kappa)
    partition = {names[u]: classes[u] for u in kappa}
    groups = {names[u]: og.TRIVIAL for u in kappa}
    subgroups = {names[u]: og.whole(og.TRIVIAL) for u in kappa if classes[u] == "I"}
    steps = {(skeleton[i], skeleton[i + 1]): og.unit_map(og.TRIVIAL, og.TRIVIAL)
             for i in range(len(skeleton) - 1)}
    bunch = Bunch(skeleton, partition, groups, subgroups, steps)
    if not bunch.kappa_j_free():  # exactly `validate(bunch).ok` here
        raise InternalInvariant("decomposition produced an invalid bunch")
    if len(assignment) != n:
        raise InternalInvariant("layer assignment is not a bijection")
    layer_of = {x: assignment[x].layer for x in range(n)}
    return DecompositionResult(bunch, assignment, layer_of)


@dataclass
class RoundTripWitness:
    result: DecompositionResult
    mapping: dict[int, ChainElement]
    size: int


def roundtrip_table(tbl: CayleyTable) -> RoundTripWitness:
    """Explicit order- and product-preserving bijection between ``tbl`` and
    the chain rebuilt from its decomposition.  The bijection is the
    certificate that ``tbl`` satisfies every axiom, since the decomposed
    bunch is valid exactly when it is class-J free (see the module
    docstring).  When the reconstruction raises, `check_flea_axioms` runs
    once and its first violation is raised, else the original error."""
    try:
        return _certify(tbl, _decompose(tbl))
    except Exception:
        for bad in check_flea_axioms(tbl).violations()[:1]:
            raise _AXIOM_ERRORS.get(bad.clause, AxiomFailure)(bad.detail, bad.witness) from None
        raise


def _certify(tbl: CayleyTable, result: DecompositionResult) -> RoundTripWitness:
    chain = Chain(result.bunch)
    mapping = result.layer_assignment
    carrier = set(chain.enumerate_elements())
    if set(mapping.values()) != carrier:
        raise RoundTripMismatch("reconstructed carrier differs from the assignment")
    for i in range(tbl.size - 1):
        if chain.compare(mapping[i], mapping[i + 1]) >= 0:
            raise RoundTripMismatch(f"order mismatch between {i} and {i + 1}")
    for i in range(tbl.size):
        for j in range(tbl.size):
            if chain.mul(mapping[i], mapping[j]) != mapping[tbl.product[i][j]]:
                raise RoundTripMismatch(f"product mismatch at cell ({i}, {j})")
    t, f = chain.constants()
    if mapping[tbl.unit] != t or mapping[tbl.falsum] != f:
        raise RoundTripMismatch("constants not preserved")
    return RoundTripWitness(result, mapping, tbl.size)


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
    companions included, and (c) applies the chain's compiled transitions.
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
                candidate = ChainElement(u, inv(x.g), False)
                if (chain.mul(x, candidate) == idem[u]) != expected:
                    fail("b", f"invertibility wrong at {x}")
            if x.dotted:
                tried["d"] += 1
                original = ChainElement(u, x.g, False)
                if chain.mul(original, comp_u) != x:
                    fail("d", f"{x} is not its original times the complement")
                if chain.zeta(u, u, x) != x.g:
                    fail("d", f"dot projection broken at {x}")
        iu = b.index(u)
        for v in b.skeleton[iu:]:
            tr = chain._tr[u, v]
            for x in pools[u]:
                if x.dotted:
                    continue
                tried["c"] += 1
                if chain.mul(idem[v], x) != ChainElement(v, tr(x.g), False):
                    fail("c", f"idempotent multiplication is not the transition at {x} -> {v}")
    checks = [Check(f"({k})", subject, k not in first, "sampled", first.get(k, ""), tried[k])
              for k, subject in (("a", "local units"), ("b", "class-I invertibility"),
                                 ("c", "idempotent transitions"), ("d", "dotted elements"))]
    return Report(checks, tried["a"] + tried["c"], RECOVER)
