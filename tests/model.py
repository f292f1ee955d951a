"""A reference model of the chain of a bunch, stated once and slowly.

`Model(b)` decides the involutive FL_e-chain of ``b`` from its groups,
subgroups and steps as `layerlat.chain`'s module docstring defines it, using
only `ChainElement` of that module.  Group values are the unit mark, ints,
`Fraction`s and pairs under their public operators; `as_fraction` and
`as_pair` convert at the boundary, so points go in and out in the package's
form.  `apply` evaluates a hom from its ``op``, ``k``, ``parts``, ``source``
and ``target`` and cancels nothing; a transition is the fold of the covering
steps, one at a time, in a loop, so any skeleton length folds.  There is no
threshold and no `ogroup` compiler (test_model.py holds it so).  Enumeration
takes each group's order from `og.g_enumerate`, pinned by literals in
test_ogroup.py, and re-derives the round-robin and the dotted companions.
One plain dict per instance keeps it fast enough: for each group value met,
by its package form, its model value and its images on the layers above.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from layerlat import ogroup as og
from layerlat.chain import ChainElement
from layerlat.errors import CoverMissing, LayerOrderError

LT, EQ, GT = -1, 0, 1
_new = tuple.__new__  # _new(ChainElement, (layer, g, dotted)) builds a point in C


def as_fraction(group, x):
    """The model value of the package value ``x``: each `Rat` pair as a Fraction."""
    if isinstance(group, og.Lex):
        return as_fraction(group.left, x[0]), as_fraction(group.right, x[1])
    return Fraction(*x) if isinstance(group, og.Rat) else x


def as_pair(group, x):
    """The package value of the model value ``x``: each Fraction as its reduced pair."""
    if isinstance(group, og.Lex):
        return as_pair(group.left, x[0]), as_pair(group.right, x[1])
    return (x.numerator, x.denominator) if isinstance(group, og.Rat) else x


def factors(group) -> list:
    """The Trivial, Int and Rat factors of ``group``, left to right."""
    return factors(group.left) + factors(group.right) if isinstance(group, og.Lex) else [group]


def unit(group):
    if isinstance(group, og.Lex):
        return unit(group.left), unit(group.right)
    return og.UNIT if isinstance(group, og.Trivial) else Fraction(0) if group is og.RAT else 0


def compare_values(group, a, b) -> int:
    """The lexicographic order: the left factor decides, the right breaks ties."""
    if group is og.INT or group is og.RAT:
        return (a > b) - (a < b)
    if isinstance(group, og.Lex):
        return compare_values(group.left, a[0], b[0]) or compare_values(group.right, a[1], b[1])
    return EQ


def add(group, a, b):
    if group is og.INT or group is og.RAT:
        return a + b
    if isinstance(group, og.Lex):
        return add(group.left, a[0], b[0]), add(group.right, a[1], b[1])
    return og.UNIT


def inverse(group, a):
    if isinstance(group, og.Lex):
        return inverse(group.left, a[0]), inverse(group.right, a[1])
    return og.UNIT if isinstance(group, og.Trivial) else -a


def cover(group, a, step: int):
    """The upper (step 1) or lower (step -1) cover of ``a``, or None: a Lex
    product covers in its right factor, or in its left one if that is trivial."""
    if isinstance(group, og.Int):
        return a + step
    if not isinstance(group, og.Lex):
        return None
    if not all(isinstance(f, og.Trivial) for f in factors(group.right)):
        c = cover(group.right, a[1], step)
        return None if c is None else (a[0], c)
    c = cover(group.left, a[0], step)
    return None if c is None else (c, a[1])


MEMBER = {  # subgroup constructor -> whether the model value a is in sub
    "whole": lambda sub, a: True,
    "int_multiples": lambda sub, a: a % sub.k == 0,
    "int_in_rat": lambda sub, a: a.denominator == 1,
    "first_zero": lambda sub, a: a[0] == unit(sub.ambient.left),
}
APPLY = {  # hom constructor -> the hom h at the model value a, nothing cancelled
    "unit": lambda h, a: unit(h.target),
    "id": lambda h, a: a,
    "scale_int": lambda h, a: h.k * a,
    "int_to_rat": lambda h, a: Fraction(a),
    "inject_first": lambda h, a: (a, unit(h.target.right)),
    "project_first": lambda h, a: a[0],
    "compose": lambda h, a: apply(h.parts[0], apply(h.parts[1], a)),
}


def member(sub, a) -> bool:
    return MEMBER[sub.op](sub, a)


def apply(h, a):
    return APPLY[h.op](h, a)


# ---------------------------------------------------------------------------
# the chain


class Layer(NamedTuple):
    position: int
    group: object
    cls: str
    sub: object  # the subgroup of a class-I layer, else None
    rational: bool  # whether its values convert at the boundary


class Model:
    """The chain of ``b``, decided from the definitions (module docstring)."""

    def __init__(self, b):
        self.bunch = b
        self.layers = {u: Layer(i, b.groups[u], b.partition[u], b.subgroups.get(u),
                                og.RAT in factors(b.groups[u])) for i, u in enumerate(b.skeleton)}
        self.steps = [b.steps[uv] for uv in zip(b.skeleton, b.skeleton[1:])]
        self.rows = {}  # (layer, package value) -> [model value, its images above]

    def row(self, x: ChainElement, lu: Layer, up_to: int) -> list:
        """x's model value, then its images up to position ``up_to``."""
        row = self.rows.get((x.layer, x.g))
        if row is None:
            row = self.rows[x.layer, x.g] = [as_fraction(lu.group, x.g) if lu.rational else x.g]
        for step in self.steps[lu.position + len(row) - 1:up_to]:
            row.append(apply(step, row[-1]))
        return row

    def value(self, x: ChainElement, lu: Layer):
        return self.row(x, lu, lu.position)[0] if lu.rational else x.g

    def up(self, x: ChainElement, lu: Layer, lv: Layer):
        """x's group part carried along the steps up to the layer ``lv``."""
        if lv.position < lu.position:
            v = self.bunch.skeleton[lv.position]
            raise LayerOrderError(f"transition requested downward: {x.layer!r} above {v!r}")
        return self.row(x, lu, lv.position)[lv.position - lu.position]

    def zeta(self, u: str, v: str, x: ChainElement):
        lv = self.layers[v]
        a = self.up(x, self.layers[u], lv)
        return as_pair(lv.group, a) if lv.rational else a

    def compare(self, x: ChainElement, y: ChainElement) -> int:
        """The group parts lifted to the higher layer decide; a tie on one layer
        puts the dotted twin just below, and across layers u < v puts the point
        of u below that of v unless the latter is dotted."""
        lu, lv = self.layers[x.layer], self.layers[y.layer]
        if lu.position < lv.position:
            c = compare_values(lv.group, self.up(x, lu, lv), self.value(y, lv))
            return c or (GT if y.dotted else LT)
        if lv.position < lu.position:
            c = compare_values(lu.group, self.value(x, lu), self.up(y, lv, lu))
            return c or (LT if x.dotted else GT)
        c = compare_values(lu.group, self.value(x, lu), self.value(y, lu))
        return c if c or x.dotted == y.dotted else LT if x.dotted else GT

    def mul(self, x: ChainElement, y: ChainElement) -> ChainElement:
        """The group parts lifted to the higher layer and added.  Across layers
        the higher operand's dot is kept; on one class-I layer the product is
        dotted when in the subgroup unless both operands are undotted members."""
        lu, lv = self.layers[x.layer], self.layers[y.layer]
        if lu.position < lv.position:
            w, lw, dotted, a, c = y.layer, lv, y.dotted, self.up(x, lu, lv), self.value(y, lv)
        elif lv.position < lu.position:
            w, lw, dotted, a, c = x.layer, lu, x.dotted, self.value(x, lu), self.up(y, lv, lu)
        else:
            w, lw, dotted, a, c = x.layer, lu, False, self.value(x, lu), self.value(y, lu)
        p = add(lw.group, a, c)
        if lu is lv and lw.cls == "I":
            dotted = member(lw.sub, p) and not (not x.dotted and not y.dotted
                                                and member(lw.sub, a) and member(lw.sub, c))
        return _new(ChainElement, (w, as_pair(lw.group, p) if lw.rational else p, dotted))

    def negate(self, x: ChainElement) -> ChainElement:
        """The inverse group part, dotted on class I when x is an undotted
        member, moved to its lower cover on class J, and otherwise undotted."""
        lu = self.layers[x.layer]
        a = self.value(x, lu)
        p, dotted = inverse(lu.group, a), lu.cls == "I" and not x.dotted and member(lu.sub, a)
        if lu.cls == "J":
            p = cover(lu.group, p, -1)
            if p is None:
                raise CoverMissing(f"class-J layer {x.layer!r} has no covers")
        return ChainElement(x.layer, as_pair(lu.group, p) if lu.rational else p, dotted)

    def residuum(self, x: ChainElement, y: ChainElement) -> ChainElement:
        return self.negate(self.mul(x, self.negate(y)))

    def constants(self) -> tuple[ChainElement, ChainElement]:
        """The unit t, the least layer's undotted unit, and the falsum not(t)."""
        lt = self.layers[self.bunch.skeleton[0]]
        t = ChainElement(self.bunch.skeleton[0], as_pair(lt.group, unit(lt.group)))
        return t, self.negate(t)

    def enumerate_elements(self):
        """The layer streams read round-robin in skeleton order until each ends."""
        streams = [self.stream(u) for u in self.bunch.skeleton]
        while streams:
            blocks = [(s, next(s, None)) for s in streams]
            streams = [s for s, block in blocks if block is not None]
            yield from (x for _, block in blocks for x in block or ())

    def stream(self, u: str):
        """The blocks of layer ``u``: a point, then its dotted twin if it has one."""
        lu = self.layers[u]
        for g in og.g_enumerate(lu.group):
            x = ChainElement(u, g, False)
            dotted = lu.cls == "I" and member(lu.sub, self.value(x, lu))
            yield [x, ChainElement(u, g, True)] if dotted else [x]
