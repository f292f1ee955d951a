"""Decomposition of finite extensional chains into bunches, and round-trip
verification in both directions.

Finite decomposition always produces trivial layer groups (a finite abelian
o-group is trivial), so every layer carries one element or, on class-I
layers, an undotted/dotted pair.  On symbolic chains the decomposition is
verified as a family of identities instead of re-derived, since the chain
already carries its bunch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import islice

from . import ogroup as og
from .bunch import Bunch, transition, validate
from .chain import Chain, ChainElement
from .errors import (AxiomFailure, InfiniteChain, InternalInvariant, NotInvolutive,
                     NotOddOrEven, RoundTripMismatch, WindowTooSmall)
from .oracle import AxiomReport, CayleyTable, brute_residuum, check_flea_axioms


def table_of_chain(chain: Chain) -> tuple[CayleyTable, list[ChainElement]]:
    """Extensional table of a finite chain; carrier listed ascending."""
    if not chain.is_finite:
        raise InfiniteChain("chain has a nontrivial layer group; use window_table")
    elems = sorted(chain.enumerate_elements(), key=cmp_to_key(chain.compare))
    return _table_for(chain, elems, clip=False), elems


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
    return _table_for(chain, elems, clip=True), elems


def _table_for(chain: Chain, elems: list[ChainElement], clip: bool) -> CayleyTable:
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)

    def locate(z: ChainElement) -> int:
        i = index.get(z)
        if i is not None:
            return i
        if not clip:
            raise InfiniteChain(f"product {z} left the carrier")
        # greatest window element <= z, floored to the window bottom
        lo = 0
        for k, e in enumerate(elems):
            if chain.compare(e, z) <= 0:
                lo = k
        return lo

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


def _raise_for(report: AxiomReport) -> None:
    basic = [v for v in report.violations if v[0] not in ("involution", "odd-or-even")]
    if basic:
        law, witness = basic[0]
        raise AxiomFailure(f"table fails {law} at {witness}", witness)
    inv = report.first("involution")
    if inv is not None:
        raise NotInvolutive(f"double complement moves {inv[0]} to {inv[2]}", inv)
    shape = report.first("odd-or-even")
    if shape is not None:
        raise NotOddOrEven(f"falsum {shape[1]} is neither unit {shape[0]} nor its lower cover", shape)


def decompose_table(tbl: CayleyTable) -> DecompositionResult:
    """Split a checked table into its skeleton, partition, and layer data.

    Layers are the positive idempotents; each element lands in the layer of
    its local unit; an element of a class-I layer is dotted exactly when it
    is the shifted copy of an invertible one.  Trivial layer groups are
    checked, not assumed: a violation raises InternalInvariant, since it
    would mean the axiom checker is wrong.
    """
    report = check_flea_axioms(tbl)
    if not report.ok:
        _raise_for(report)
    n, p, t, f = tbl.size, tbl.product, tbl.unit, tbl.falsum
    neg = [brute_residuum(tbl, x, f) for x in range(n)]
    local_unit = [brute_residuum(tbl, x, x) for x in range(n)]

    kappa = [u for u in range(n) if u >= t and p[u][u] == u]
    if kappa != sorted(set(local_unit)):
        raise InternalInvariant("skeleton characterizations disagree")

    is_odd = report.is_odd
    classes: dict[int, str] = {}
    for u in kappa:
        if u == t:
            classes[u] = "O" if is_odd else ("I" if p[f][f] == f else "J")
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
    if not validate(bunch).ok:
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
    the chain rebuilt from its decomposition."""
    result = decompose_table(tbl)
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


@dataclass
class RecoverReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        head = f"{'ok' if self.ok else 'FAIL'} ({self.checked} identity checks)"
        return "\n".join([head] + self.failures[:10])


def recover_bunch_samples(chain: Chain, samples: int = 1000) -> RecoverReport:
    """Verify, on sampled elements, that the decomposition equations re-read
    the bunch off the reconstructed chain:

    a) the local unit of x is the idempotent of its layer;
    b) on class-I layers, being invertible within the layer coincides with
       being an undotted subgroup member, and with the complement-shift test;
    c) multiplying by a higher layer's idempotent realizes the transition on
       undotted elements;
    d) a dotted element is its original times the layer complement, and the
       dot projection recovers the original.
    """
    report = RecoverReport()
    b = chain.bunch
    per_layer = max(1, samples // max(1, len(b.skeleton)))
    pools: dict[str, list[ChainElement]] = {}
    for u in b.skeleton:
        pool = []
        member = og.member_fn(b.subgroups[u]) if b.partition[u] == "I" else None
        for g in islice(og.g_enumerate(b.groups[u]), per_layer):
            pool.append(ChainElement(u, g, False))
            if member is not None and member(g):
                pool.append(ChainElement(u, g, True))
        pools[u] = pool

    idem = {u: ChainElement(u, og.g_unit(b.groups[u]), False) for u in b.skeleton}

    for u in b.skeleton:
        member = og.member_fn(b.subgroups[u]) if b.partition[u] == "I" else None
        inv = og.inv_fn(b.groups[u])
        comp_u = chain.negate(idem[u])
        for x in pools[u]:
            report.checked += 1
            if chain.residuum(x, x) != idem[u]:
                report.failures.append(f"(a) local unit of {x} is not the layer idempotent")
            if member is not None:
                expected = (not x.dotted) and member(x.g)
                shifted = chain.mul(x, comp_u)
                if (chain.compare(shifted, x) < 0) != expected:
                    report.failures.append(f"(b) complement-shift test wrong at {x}")
                candidate = ChainElement(u, inv(x.g), False)
                if (chain.mul(x, candidate) == idem[u]) != expected:
                    report.failures.append(f"(b) invertibility wrong at {x}")
            if x.dotted:
                original = ChainElement(u, x.g, False)
                if chain.mul(original, comp_u) != x:
                    report.failures.append(f"(d) {x} is not its original times the complement")
                if chain.zeta(u, u, x) != x.g:
                    report.failures.append(f"(d) dot projection broken at {x}")
        iu = b.index(u)
        for v in b.skeleton[iu:]:
            tr = og.hom_fn(transition(b, u, v))
            for x in pools[u]:
                if x.dotted:
                    continue
                report.checked += 1
                if chain.mul(idem[v], x) != ChainElement(v, tr(x.g), False):
                    report.failures.append(f"(c) idempotent multiplication is not the transition at {x} -> {v}")
    return report
