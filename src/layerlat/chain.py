"""The involutive FL_e-chain built over a bunch.

A `Chain` is its bunch's compiled form, over the bunch's own maps, which it
does not copy.  A `Bunch` is structurally sound, so set-up checks nothing;
it builds four tables keyed by layer: the group's unit, comparison and
operation, and the subgroup's membership test.  Each is ``dict(zip(layers,
map(compiler, groups)))`` over an `lru_cache`d `ogroup` compiler; groups
are hash-consed and hash by identity, so this iterates and hashes in C,
with no Python frame per layer.  Set-up also builds the thresholds:

* ``_unit_from``: per layer position i, the position just above the first
  step at or above ``sk[i]`` that is `og.hom_is_constant_unit` (``len(sk)``
  when there is none), read off ``bunch.steps``, never off `transition`.
  Every DSL hom sends unit to unit, so a composite with a constant-unit
  stage is the constant unit map (`og.hom_compose`'s absorb rule): from
  that position up, every transition out of ``sk[i]`` is the constant unit
  map.  There `mul` returns the higher operand itself (op(e, g) = g, and
  the higher operand's dot is kept), `compare` lifts to the target layer's
  unit and `lift` returns the constant map to that unit, with no transition
  compiled.  A finite chain's steps are all unit maps, so it compiles none.

Everything else is built on first use:

* ``_same``: one product kernel per layer, built on first use.  A class O
  or J layer whose group is non-trivial hash-conses its products (group
  values hash in C): a product with the layer unit returns the other
  operand object, any other the one point tabled for its value, up to
  `TABLE_CAP` points, past which points are built afresh.  Class-I kernels,
  `negate` and cross-layer products stay untabled: on a prototype, tabling
  every kernel raised the `elements` benchmark's peak RSS by 11%, the
  same-layer kernels with class I by 9.6%, and the class O and J kernels
  without the unit rule by 6.1%; this design by 1-2%.
* `mul_block`: x times a block of points of one layer, the layer pair
  decided once: ``_same[u]`` mapped over it, the block or copies of x past
  the threshold, x lifted once below it (`embed.check_embedding` uses it).
* ``_neg``: one complement kernel per layer, built on first use, holding
  the layer's compiled inverse, its membership test (class I) or its
  compiled lower cover (class J), so `negate` is one dict hit and one call.
  A class-J layer without covers gets a kernel that raises CoverMissing
  when called, as `negate` did.
* ``_tr``: one transition map per remaining layer pair, compiled on first
  use from `bunch.transition`.  Only `Chain` reads it: `lift` decides a
  layer pair by the threshold first, and `zeta`, `embed.check_embedding`,
  `decompose.recover_bunch_samples` and `bunch._audit` go through `lift`,
  so a bunch is compiled here only.
* ``_layer_blocks``: one point stream per layer, which
  `recover_bunch_samples` reads too; `enumerate_elements` builds none for a
  trivial layer, whose one block it yields directly.

So the compiled form grows with the number of layers L, not with L^2,
except for the pairs below a threshold that `lift` is asked for.

Carrier points are triples (layer, group element, dotted flag); dotted points
exist only on class-I layers for elements of the designated subgroup and sit
immediately below their undotted originals.  Order, product, residual
complement, and residuum are all decided from the bunch data:

* order: push both points up to the higher layer along the transition; a
  strict group comparison decides.  On a tie, on one layer the dotted point
  sits just below its undotted twin, and across layers u < v, x on u lies
  below y on v unless y is dotted.  So two points are EQ exactly when they
  lie on one layer, their group parts tie and their dots agree;
* product: multiply the lifted group parts in the higher layer's group; the
  result is dotted when the higher operand is dotted across distinct layers,
  or, within one class-I layer, when the product lands in the subgroup and
  the operands are not both undotted subgroup members;
* complement: invert the group part, then dot (class-I subgroup members),
  take the lower cover (class-J), or leave as is;
* residuum: x -> y = not(x * not(y)).

`compare` is antisymmetric (its branches negate when the arguments swap) and
`mul` commutative (abelian groups, a symmetric dotting rule) by construction;
`check_embedding` and `standardize._extended_tables` scan one triangle for it.

`check_chain_laws` samples the chain axioms into a `report.Report`, one
`Check` per law, deciding each value once over interned int ids.  The
compare, product and residuum values of pool pairs sit in three flat lists
of n * n slots indexed by pool position (i * n + j, None until decided),
which no law reads mirrored; values with an off-pool operand sit in dicts.
Points are built with `tuple.__new__` (`_new`), which skips the Python
frame of NamedTuple's generated `__new__`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice, repeat
from typing import Callable, Iterator, NamedTuple

from . import ogroup as og
from .bunch import Bunch, BunchType, bunch_type, transition
from .errors import CoverMissing, ParseError, TypeMismatch, UnknownLayer
from .report import LAWS, Check, Report

LT, EQ, GT = og.LT, og.EQ, og.GT
_new = tuple.__new__  # _new(ChainElement, (layer, g, dotted)), as ChainElement._make
TABLE_CAP = 4096  # points one layer's product table holds (module docstring)


class ChainElement(NamedTuple):
    layer: str
    g: og.GElem
    dotted: bool = False


class Chain:
    """Decidable chain over a structurally sound bunch; immutable and pure.
    Set-up checks no structure and builds the thresholds (module docstring)."""

    def __init__(self, bunch: Bunch):
        self.bunch = bunch
        # the bunch's own maps, frozen by convention; labels are distinct here
        self._idx = bunch._positions
        self._cls = bunch.partition
        self._group = bunch.groups
        layers, groups = bunch.groups.keys(), bunch.groups.values()
        self._unit = dict(zip(layers, map(og.g_unit, groups)))
        self._cmp = dict(zip(layers, map(og.cmp_fn, groups)))
        self._op = dict(zip(layers, map(og.op_fn, groups)))
        self._member = dict(zip(bunch.subgroups, map(og.member_fn, bunch.subgroups.values())))
        self._tr = _Memo(lambda uv: og.hom_fn(transition(bunch, *uv)))
        self._same = _Memo(lambda u: _same_layer_kernel(bunch, u))
        self._neg = _Memo(lambda u: _complement_kernel(bunch, u))
        sk, steps = bunch.skeleton, bunch.steps
        self._unit_from = unit_from = [len(sk)] * len(sk)
        for i in range(len(sk) - 2, -1, -1):
            unit_from[i] = (i + 1 if og.hom_is_constant_unit(steps[sk[i], sk[i + 1]])
                            else unit_from[i + 1])

    def thresholds(self) -> list[int]:
        """``_unit_from``: position i -> the least position from which every
        transition out of layer i is the constant unit map (the module
        docstring says why)."""
        return self._unit_from

    # -- structure ---------------------------------------------------------

    def type(self) -> BunchType:
        return bunch_type(self.bunch)

    @property
    def is_finite(self) -> bool:
        return all(og.group_is_trivial(g) for g in self._group.values())

    def check_element(self, x: ChainElement) -> None:
        """Raise unless ``x`` is a carrier point of this chain."""
        if x.layer not in self._idx:
            raise UnknownLayer(f"layer {x.layer!r} not in skeleton")
        og.g_check(self._group[x.layer], x.g)
        if x.dotted:
            if self._cls[x.layer] != "I":
                raise TypeMismatch(f"dotted element on non-class-I layer {x.layer!r}")
            if not self._member[x.layer](x.g):
                raise TypeMismatch("dotted element outside the designated subgroup")

    def lift(self, u: str, v: str) -> Callable[[og.GElem], og.GElem]:
        """The transition from layer ``u`` up to layer ``v`` as a map on group
        elements: the identity when u == v, the constant unit of ``v`` at or
        past ``u``'s threshold, and the compiled ``_tr`` entry otherwise
        (which raises LayerOrderError when ``v`` is below ``u``)."""
        iu, iv = self.bunch.index(u), self.bunch.index(v)
        if iu == iv:
            return _identity
        if iv >= self._unit_from[iu]:
            unit = self._unit[v]
            return lambda g: unit
        return self._tr[(u, v)]

    def zeta(self, u: str, v: str, x: ChainElement) -> og.GElem:
        """Lift ``x`` from layer ``u`` into the group of layer ``v`` (the dot
        is discarded before the transition is applied)."""
        if x.layer != u:
            raise TypeMismatch(f"element lives on layer {x.layer!r}, not {u!r}")
        return self.lift(u, v)(x.g)

    # -- order and algebra ---------------------------------------------------

    def compare(self, x: ChainElement, y: ChainElement) -> int:
        u, v = x.layer, y.layer
        if u == v:  # EQ exactly when the group parts tie and the dots agree
            c = self._cmp[u](x.g, y.g)
            if c or x.dotted == y.dotted:
                return c
            return LT if x.dotted else GT
        iu, iv = self._idx[u], self._idx[v]
        unit_from = self._unit_from
        if iu < iv:
            lifted = self._unit[v] if iv >= unit_from[iu] else self._tr[(u, v)](x.g)
            c = self._cmp[v](lifted, y.g)
            if c:
                return c
            return GT if y.dotted else LT
        lifted = self._unit[u] if iu >= unit_from[iv] else self._tr[(v, u)](y.g)
        c = self._cmp[u](x.g, lifted)
        if c:
            return c
        return LT if x.dotted else GT

    def mul(self, x: ChainElement, y: ChainElement) -> ChainElement:
        u, v = x.layer, y.layer
        if u == v:
            return self._same[u](x, y)
        # past the threshold op(e, g) = g, and the higher operand's dot is kept
        unit_from = self._unit_from
        iu, iv = self._idx[u], self._idx[v]
        if iu < iv:
            if iv >= unit_from[iu]:
                return y
            lo, hi = x, y
        else:
            if iu >= unit_from[iv]:
                return x
            lo, hi = y, x
        w = hi.layer
        p = self._op[w](self._tr[(lo.layer, w)](lo.g), hi.g)
        return _new(ChainElement, (w, p, hi.dotted))

    def mul_block(self, x: ChainElement, ys: list[ChainElement]) -> list[ChainElement]:
        """``[self.mul(x, y) for y in ys]`` for points ``ys`` of one layer: the
        same values, and objects wherever `mul` returns an operand or tabled point."""
        if not ys:
            return []
        u, v = x.layer, ys[0].layer
        if u == v:
            return list(map(self._same[u], repeat(x), ys))
        unit_from = self._unit_from
        iu, iv = self._idx[u], self._idx[v]
        if iu < iv:
            if iv >= unit_from[iu]:
                return list(ys)
            xg, op = self._tr[(u, v)](x.g), self._op[v]
            return [_new(ChainElement, (v, op(xg, y.g), y.dotted)) for y in ys]
        if iu >= unit_from[iv]:
            return [x] * len(ys)
        tr, op, xg, dot = self._tr[(v, u)], self._op[u], x.g, x.dotted
        return [_new(ChainElement, (u, op(tr(y.g), xg), dot)) for y in ys]

    def negate(self, x: ChainElement) -> ChainElement:
        return self._neg[x.layer](x)

    def residuum(self, x: ChainElement, y: ChainElement) -> ChainElement:
        return self.negate(self.mul(x, self.negate(y)))

    def constants(self) -> tuple[ChainElement, ChainElement]:
        t = ChainElement(self.bunch.least(), self._unit[self.bunch.least()], False)
        return t, self.negate(t)

    def bounds(self) -> tuple[ChainElement, ChainElement] | None:
        """(top, bottom) when the chain is bounded, else None.

        A one-element chain is bounded; otherwise boundedness needs the
        greatest layer to be class I with a trivial group, making its unit the
        top and the dotted unit the bottom.
        """
        sk = self.bunch.skeleton
        if (len(sk) == 1 and self._cls[sk[0]] == "O"
                and og.group_is_trivial(self._group[sk[0]])):
            t = ChainElement(sk[0], self._unit[sk[0]], False)
            return t, t
        top_layer = sk[-1]
        if self._cls[top_layer] == "I" and og.group_is_trivial(self._group[top_layer]):
            u = self._unit[top_layer]
            return ChainElement(top_layer, u, False), ChainElement(top_layer, u, True)
        return None

    # -- enumeration ---------------------------------------------------------

    def _layer_blocks(self, u: str) -> Iterator[list[ChainElement]]:
        dotted_too = self._cls[u] == "I"
        member = self._member.get(u)
        for g in og.g_enumerate(self._group[u]):
            block = [_new(ChainElement, (u, g, False))]
            if dotted_too and member(g):
                block.append(_new(ChainElement, (u, g, True)))
            yield block

    def enumerate_elements(self) -> Iterator[ChainElement]:
        """Round-robin over the layer streams; a dotted companion is emitted
        immediately after its undotted original.  Every point appears once.
        A trivial layer yields its one block in round one and gets no stream."""
        streams = []
        for u in self.bunch.skeleton:
            if og.group_is_trivial(self._group[u]):  # every subgroup holds the unit
                yield _new(ChainElement, (u, self._unit[u], False))
                if self._cls[u] == "I":
                    yield _new(ChainElement, (u, self._unit[u], True))
            else:  # a non-trivial group has infinitely many points
                streams.append(self._layer_blocks(u))
                yield from next(streams[-1])
        while streams:
            alive = []
            for s in streams:
                block = next(s, None)
                if block is None:
                    continue
                alive.append(s)
                yield from block
            streams = alive


def _same_layer_kernel(b: Bunch, u: str):
    """x * y for two points of layer ``u``: the product of the group parts,
    dotted within a class-I layer when it lands in the subgroup and the
    operands are not both undotted subgroup members.  A trivial group gives
    its unit, a whole subgroup dots exactly when either operand is dotted,
    with no membership calls, and a layer that does not dot tables its
    products in ``kernel.table`` (module docstring)."""
    group = b.groups[u]
    dotting = b.partition[u] == "I"
    if og.group_is_trivial(group):
        plain = _new(ChainElement, (u, og.g_unit(group), False))
        if not dotting:
            return lambda x, y: plain
        dotted = _new(ChainElement, (u, og.g_unit(group), True))
        return lambda x, y: dotted if x.dotted or y.dotted else plain
    op = og.op_fn(group)
    if not dotting:
        e, table = og.g_unit(group), {}

        def tabled(x, y):
            xg, yg = x.g, y.g
            if yg == e:
                return x
            if xg == e:
                return y
            p = op(xg, yg)
            z = table.get(p)
            if z is None:
                z = _new(ChainElement, (u, p, False))
                if len(table) < TABLE_CAP:
                    table[p] = z
            return z
        tabled.table = table
        return tabled
    sub = b.subgroups[u]
    if og.subgroup_is_whole(sub):
        return lambda x, y: _new(ChainElement, (u, op(x.g, y.g), x.dotted or y.dotted))
    mem = og.member_fn(sub)

    def kernel(x, y):
        p = op(x.g, y.g)
        return _new(ChainElement, (u, p, mem(p) and (x.dotted or y.dotted
                                                      or not (mem(x.g) and mem(y.g)))))
    return kernel


def _complement_kernel(b: Bunch, u: str):
    """not(x) for a point of layer ``u``: the inverse of the group part,
    dotted on a class-I layer exactly when x is an undotted subgroup member,
    moved to its lower cover on a class-J layer (CoverMissing when the
    group has none), and kept as it is otherwise."""
    group, cls = b.groups[u], b.partition[u]
    inv = og.inv_fn(group)
    if cls == "I":
        mem = og.member_fn(b.subgroups[u])
        return lambda x: _new(ChainElement, (u, inv(x.g), not x.dotted and mem(x.g)))
    if cls == "J":
        down = og.cover_fn(group, -1)

        def kernel(x):
            g = down(inv(x.g))
            if g is None:
                raise CoverMissing(f"class-J layer {u!r} has no covers")
            return _new(ChainElement, (u, g, False))
        return kernel
    return lambda x: _new(ChainElement, (u, inv(x.g), False))


def _identity(g: og.GElem) -> og.GElem:
    return g


class _Memo(dict):
    """key -> fn(key), computed on the first lookup; later ones are plain
    dict hits that run no Python code."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        r = self[key] = self.fn(key)
        return r


# ---------------------------------------------------------------------------
# element literals: `layer:g` and `layer:d:g`


def format_element(chain: Chain, x: ChainElement) -> str:
    chain.check_element(x)
    g = og.format_gelem(chain.bunch.groups[x.layer], x.g)
    return f"{x.layer}:d:{g}" if x.dotted else f"{x.layer}:{g}"


def parse_element(chain: Chain, text: str) -> ChainElement:
    layer, sep, rest = text.strip().partition(":")
    if not sep:
        raise ParseError(f"element literal needs 'layer:value', got {text!r}")
    if layer not in chain.bunch.partition:
        raise UnknownLayer(f"layer {layer!r} not in skeleton")
    dotted = False
    if rest.startswith("d:"):
        dotted = True
        rest = rest[2:]
    g = og.parse_gelem(chain.bunch.groups[layer], rest)
    x = ChainElement(layer, g, dotted)
    chain.check_element(x)
    return x


# ---------------------------------------------------------------------------
# law checking


POOL_SIZE = 48  # enumerated points that `check_chain_laws` samples from


def check_chain_laws(chain: Chain, samples: int = 10_000, *, seed: int = 0) -> Report:
    """Sample-check the chain axioms on random triples from an enumerated pool.

    Covers order totality/transitivity, commutativity, associativity, the
    unit law, monotonicity, adjointness, involution, and the odd/even shape
    of the falsum, one sampled `Check` per law whose ``samples`` is the
    number of triples, or of pool points, it looked at and whose detail is
    its first failure.  A finite chain gets its whole carrier as the pool only
    when it has at most `POOL_SIZE` points; the pool always holds the unit.

    Each value is decided once, lazily, over element ids: pool point i is
    id i, and every other element met gets the next free id.  The values of
    pool pairs sit in three flat lists of n * n slots indexed by pool
    position, i * n + j, each None until decided: ``order`` holds
    compare(pool[i], pool[j]), ``prod`` the id of pool[i] * pool[j] and
    ``resid`` the id of not(pool[i] * not(pool[j])).  A law reads the slots
    of its sampled pairs inline, in the orientation it writes the value, and
    so do associativity, monotonicity and adjointness for a derived id (a
    product or residuum) that is a pool id; a helper (`cmp`, `times`,
    `res`) runs only on None or for an off-pool id.
    Plain dicts hold the values with an off-pool id a: compare at (a, b), a
    times pool point p at a * n + p for both orientations (`times`), and
    complements by id.  So no ordered pair reaches `Chain.compare` or
    `Chain.mul` twice.  The unit law, run first, stores t * x and x * t in
    row and column 0 of ``prod`` (t is pool point 0).  No table refers back
    to itself, so all are freed on return.
    """
    if samples < 0:
        raise ValueError("samples must be at least 0")
    pool = list(islice(chain.enumerate_elements(), POOL_SIZE))
    n = len(pool)
    triples = _sample_triples(n, samples, seed)
    t, f = chain.constants()
    raw_cmp, raw_mul, raw_neg = chain.compare, chain.mul, chain.negate
    elems, ids = list(pool), dict(zip(pool, range(n)))
    order, prod, resid = [None] * (n * n), [None] * (n * n), [None] * (n * n)
    off_order, off_prod, complements = {}, {}, {}

    def intern(x):
        a = ids.get(x)
        if a is None:
            a = ids[x] = len(elems)
            elems.append(x)
        return a

    def cmp(a, b):  # compare(elems[a], elems[b])
        if a < n and b < n:
            c = order[a * n + b]
            if c is None:
                c = order[a * n + b] = raw_cmp(pool[a], pool[b])
            return c
        c = off_order.get((a, b))
        if c is None:
            c = off_order[a, b] = raw_cmp(elems[a], elems[b])
        return c

    def times(a, b):  # elems[a] * elems[b], one of them a pool point
        if a < n and b < n:
            c = prod[a * n + b]
            if c is None:
                c = prod[a * n + b] = intern(raw_mul(pool[a], pool[b]))
            return c
        if a < n:  # an off-pool product is decided with the off-pool id first
            a, b = b, a
        c = off_prod.get(a * n + b)
        if c is None:
            c = off_prod[a * n + b] = intern(raw_mul(elems[a], pool[b]))
        return c

    def neg(a):
        if a not in complements:
            complements[a] = intern(raw_neg(elems[a]))
        return complements[a]

    def res(i, k):  # not(pool[i] * not(pool[k]))
        c = resid[i * n + k] = neg(times(i, neg(k)))
        return c

    unit_failure = next((f"{pool[i]}" for i in range(n)
                         if times(0, i) != i or times(i, 0) != i), None)

    results = []

    def law(name: str, checked: int, failure: str | None) -> None:
        results.append(Check(name, f"{checked} samples", failure is None, "sampled",
                             failure or "", checked))

    failure = None
    for i, j, k in triples:
        c, d = order[i * n + j], order[j * n + i]
        if c is None or d is None:
            c, d = cmp(i, j), cmp(j, i)
        if c != -d:
            failure = f"asymmetry broken at {pool[i]}, {pool[j]}"
        elif (i == j) != (c == EQ):
            failure = f"equality vs EQ mismatch at {pool[i]}, {pool[j]}"
        elif c <= 0 and cmp(j, k) <= 0 and cmp(i, k) > 0:
            failure = f"transitivity broken at {pool[i]}, {pool[j]}, {pool[k]}"
        if failure:
            break
    law("totality", len(triples), failure)

    law("commutativity", len(triples), next(
        (f"{pool[i]} * {pool[j]}" for i, j, _ in triples
         for p, q in [(prod[i * n + j], prod[j * n + i])]
         if (times(i, j) if p is None else p) != (times(j, i) if q is None else q)), None))

    failure = None
    for i, j, k in triples:
        p, q = prod[i * n + j], prod[j * n + k]
        if p is None:
            p = times(i, j)
        left = prod[p * n + k] if p < n else None
        if left is None:
            left = times(p, k)
        if q is None:
            q = times(j, k)
        right = prod[i * n + q] if q < n else None
        if right is None:
            right = times(i, q)
        if left != right:
            failure = f"{pool[i]}, {pool[j]}, {pool[k]}"
            break
    law("associativity", len(triples), failure)

    law("unit", n, unit_failure)

    failure = None
    for i, j, k in triples:
        c, p, q = order[i * n + j], prod[i * n + k], prod[j * n + k]
        if c is None:
            c = cmp(i, j)
        if c > 0:
            continue
        if p is None:
            p = times(i, k)
        if q is None:
            q = times(j, k)
        c = order[p * n + q] if p < n and q < n else None
        if c is None:
            c = cmp(p, q)
        if c > 0:
            failure = f"{pool[i]} <= {pool[j]} but products reversed with {pool[k]}"
            break
    law("monotonicity", len(triples), failure)

    failure = None
    for i, j, k in triples:
        p, r = prod[i * n + j], resid[i * n + k]
        if p is None:
            p = times(i, j)
        c = order[p * n + k] if p < n else None
        if c is None:
            c = cmp(p, k)
        if r is None:
            r = res(i, k)
        d = order[j * n + r] if r < n else None
        if d is None:
            d = cmp(j, r)
        if (c <= 0) != (d <= 0):
            failure = f"x={pool[i]}, v={pool[j]}, z={pool[k]}"
            break
    law("adjointness", len(triples), failure)

    law("involution", n, next((f"{pool[i]}" for i in range(n) if neg(neg(i)) != i), None))

    ti, fi = intern(t), intern(f)
    if chain.type() == BunchType.ODD:
        failure = None if fi == ti else "odd chain must fix the unit under complement"
    elif cmp(fi, ti) != LT:
        failure = "even chain needs falsum strictly below unit"
    else:
        failure = next((f"{pool[i]} lies strictly between falsum and unit" for i in range(n)
                        if cmp(fi, i) == LT and cmp(i, ti) == LT), None)
    law("falsum-shape", n, failure)

    return Report(results, samples, LAWS)


@lru_cache(maxsize=1)
def _sample_triples(n: int, samples: int, seed: int) -> list[tuple[int, int, int]]:
    """``samples`` triples of `random.Random(seed).randrange(n)` draws, drawn
    as `randrange` draws them, from ``getrandbits`` with the same rejection
    loop, without its per-call argument checks.  ``n`` must be positive:
    ``getrandbits(0)`` is 0, so at n = 0 the loop never ends.  The last draw
    is kept, so consecutive checks with equal arguments share one list, which
    no caller may mutate."""
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    draws = []
    for _ in range(3 * samples):
        r = bits(k)
        while r >= n:
            r = bits(k)
        draws.append(r)
    return list(zip(draws[0::3], draws[1::3], draws[2::3]))
