"""Decidable abelian ordered groups, order homomorphisms, and subgroups.

Groups come from a closed constructor family (trivial, integers, rationals,
binary lexicographic products), so comparison, covers, enumeration, and
subgroup membership all stay decidable.  Element values are plain Python
data: the unit mark, exact ints, ``fractions.Fraction``, and nested pairs.

The module also owns the textual/JSON encodings for groups, elements, homs,
and subgroups used by bunch files and the CLI.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator

from .errors import ParseError, TypeMismatch

LT, EQ, GT = -1, 0, 1
ORDERING_NAMES = {LT: "LT", EQ: "EQ", GT: "GT"}


@dataclass(frozen=True)
class _UnitMark:
    def __repr__(self) -> str:
        return "e"


#: The single element of the trivial group.
UNIT = _UnitMark()


@dataclass(frozen=True)
class Trivial:
    def __repr__(self) -> str:
        return "Trivial()"


@dataclass(frozen=True)
class Int:
    def __repr__(self) -> str:
        return "Int()"


@dataclass(frozen=True)
class Rat:
    def __repr__(self) -> str:
        return "Rat()"


@dataclass(frozen=True)
class Lex:
    left: "OGroup"
    right: "OGroup"


OGroup = Trivial | Int | Rat | Lex
GElem = _UnitMark | int | Fraction | tuple

TRIVIAL = Trivial()
INT = Int()
RAT = Rat()


# ---------------------------------------------------------------------------
# elements


def g_check(group: OGroup, x: GElem) -> None:
    """Raise TypeMismatch unless ``x`` is a well-typed element of ``group``."""
    if isinstance(group, Trivial):
        if x != UNIT:
            raise TypeMismatch(f"expected the unit mark of the trivial group, got {x!r}")
    elif isinstance(group, Int):
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeMismatch(f"expected an integer, got {x!r}")
    elif isinstance(group, Rat):
        if not isinstance(x, Fraction):
            raise TypeMismatch(f"expected a Fraction, got {x!r}")
    elif isinstance(group, Lex):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise TypeMismatch(f"expected a pair, got {x!r}")
        g_check(group.left, x[0])
        g_check(group.right, x[1])
    else:
        raise TypeMismatch(f"unknown group constructor {group!r}")


@lru_cache(maxsize=None)
def g_unit(group: OGroup) -> GElem:
    if isinstance(group, Trivial):
        return UNIT
    if isinstance(group, Int):
        return 0
    if isinstance(group, Rat):
        return Fraction(0)
    return (g_unit(group.left), g_unit(group.right))


@lru_cache(maxsize=None)
def cmp_fn(group: OGroup) -> Callable[[GElem, GElem], int]:
    """Compiled three-way comparison for ``group`` (no type checks)."""
    if isinstance(group, Trivial):
        return lambda a, b: EQ
    if isinstance(group, (Int, Rat)):
        return lambda a, b: (a > b) - (a < b)
    left, right = cmp_fn(group.left), cmp_fn(group.right)
    return lambda a, b: left(a[0], b[0]) or right(a[1], b[1])


@lru_cache(maxsize=None)
def op_fn(group: OGroup) -> Callable[[GElem, GElem], GElem]:
    """Compiled group operation (componentwise addition)."""
    if isinstance(group, Trivial):
        return lambda a, b: UNIT
    if isinstance(group, (Int, Rat)):
        return lambda a, b: a + b
    left, right = op_fn(group.left), op_fn(group.right)
    return lambda a, b: (left(a[0], b[0]), right(a[1], b[1]))


@lru_cache(maxsize=None)
def inv_fn(group: OGroup) -> Callable[[GElem], GElem]:
    if isinstance(group, Trivial):
        return lambda a: UNIT
    if isinstance(group, (Int, Rat)):
        return lambda a: -a
    left, right = inv_fn(group.left), inv_fn(group.right)
    return lambda a: (left(a[0]), right(a[1]))


def g_compare(group: OGroup, x: GElem, y: GElem) -> int:
    """Total-order outcome LT/EQ/GT for two elements of ``group``."""
    g_check(group, x)
    g_check(group, y)
    return cmp_fn(group)(x, y)


def g_op(group: OGroup, x: GElem, y: GElem) -> GElem:
    g_check(group, x)
    g_check(group, y)
    return op_fn(group)(x, y)


def g_inv(group: OGroup, x: GElem) -> GElem:
    g_check(group, x)
    return inv_fn(group)(x)


@lru_cache(maxsize=None)
def group_is_trivial(group: OGroup) -> bool:
    """True when the group has no element besides the unit."""
    if isinstance(group, Trivial):
        return True
    if isinstance(group, Lex):
        return group_is_trivial(group.left) and group_is_trivial(group.right)
    return False


@lru_cache(maxsize=None)
def is_discrete(group: OGroup) -> bool:
    """True when every element has an upper and a lower cover.

    The trivial group is not discrete (nothing lies beside the unit).  A lex
    product is ruled by its right factor unless that factor is trivial.
    """
    if isinstance(group, Int):
        return True
    if isinstance(group, Lex):
        if not group_is_trivial(group.right):
            return is_discrete(group.right)
        return is_discrete(group.left)
    return False


def _cover(group: OGroup, x: GElem, step: int) -> GElem | None:
    if isinstance(group, Int):
        return x + step
    if isinstance(group, Lex):
        if not group_is_trivial(group.right):
            inner = _cover(group.right, x[1], step)
            return None if inner is None else (x[0], inner)
        inner = _cover(group.left, x[0], step)
        return None if inner is None else (inner, x[1])
    return None


def g_cover_up(group: OGroup, x: GElem) -> GElem | None:
    """The unique upper cover of ``x``, or None in dense/trivial groups."""
    g_check(group, x)
    return _cover(group, x, 1)


def g_cover_down(group: OGroup, x: GElem) -> GElem | None:
    g_check(group, x)
    return _cover(group, x, -1)


def _rationals() -> Iterator[Fraction]:
    # 0 first, then each positive rational of the Calkin-Wilf walk with its
    # negative right behind it.
    yield Fraction(0)
    q = Fraction(1)
    while True:
        yield q
        yield -q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def _integers() -> Iterator[int]:
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _dovetail(left: Iterator[GElem], right: Iterator[GElem]) -> Iterator[tuple]:
    xs: list[GElem] = []
    ys: list[GElem] = []
    left_done = right_done = False
    d = 0
    while True:
        while not left_done and len(xs) <= d:
            try:
                xs.append(next(left))
            except StopIteration:
                left_done = True
        while not right_done and len(ys) <= d:
            try:
                ys.append(next(right))
            except StopIteration:
                right_done = True
        if left_done and right_done and d > (len(xs) - 1) + (len(ys) - 1):
            return
        for i in range(min(d, len(xs) - 1), -1, -1):
            j = d - i
            if j <= len(ys) - 1:
                yield (xs[i], ys[j])
        d += 1


def g_enumerate(group: OGroup) -> Iterator[GElem]:
    """Every element exactly once, in a fixed replayable order.

    Int: 0, 1, -1, 2, -2, ...; Rat: 0 then signed Calkin-Wilf; Lex: diagonal
    dovetailing of the factor streams; Trivial: just the unit.
    """
    if isinstance(group, Trivial):
        return iter((UNIT,))
    if isinstance(group, Int):
        return _integers()
    if isinstance(group, Rat):
        return _rationals()
    return _dovetail(g_enumerate(group.left), g_enumerate(group.right))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Hom:
    """An order-preserving group homomorphism from the closed DSL.

    ``op`` is one of unit/id/scale_int/int_to_rat/inject_first/project_first/
    compose; ``parts`` holds (outer, inner) for compose.
    """

    op: str
    source: OGroup
    target: OGroup
    k: int = 0
    parts: tuple["Hom", ...] = ()


def unit_map(source: OGroup, target: OGroup) -> Hom:
    return Hom("unit", source, target)


def identity(group: OGroup) -> Hom:
    return Hom("id", group, group)


def scale_int(k: int) -> Hom:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise TypeMismatch(f"scale_int needs a positive integer, got {k!r}")
    return Hom("scale_int", INT, INT, k=k)


def int_to_rat() -> Hom:
    return Hom("int_to_rat", INT, RAT)


def inject_first(target: Lex) -> Hom:
    if not isinstance(target, Lex):
        raise TypeMismatch("inject_first needs a lex target")
    return Hom("inject_first", target.left, target)


def project_first(source: Lex) -> Hom:
    if not isinstance(source, Lex):
        raise TypeMismatch("project_first needs a lex source")
    return Hom("project_first", source, source.left)


def hom_compose(outer: Hom, inner: Hom) -> Hom:
    """``outer`` after ``inner``, in normal form: an ``id`` stage is dropped,
    a ``unit`` stage absorbs the composite, and two ``scale_int`` stages
    merge into one."""
    if inner.target != outer.source:
        raise TypeMismatch(
            f"cannot compose: inner target {inner.target!r} != outer source {outer.source!r}"
        )
    if outer.op == "id":
        return inner
    if inner.op == "id":
        return outer
    if outer.op == "unit" or inner.op == "unit":
        return unit_map(inner.source, outer.target)
    if outer.op == inner.op == "scale_int":
        return scale_int(outer.k * inner.k)
    return Hom("compose", inner.source, outer.target, parts=(outer, inner))


@lru_cache(maxsize=None)
def hom_fn(h: Hom) -> Callable[[GElem], GElem]:
    """Compiled application function for ``h`` (no type checks)."""
    if h.op == "unit":
        u = g_unit(h.target)
        return lambda x: u
    if h.op == "id":
        return lambda x: x
    if h.op == "scale_int":
        k = h.k
        return lambda x: k * x
    if h.op == "int_to_rat":
        return lambda x: Fraction(x)
    if h.op == "inject_first":
        u = g_unit(h.target.right)
        return lambda x: (x, u)
    if h.op == "project_first":
        return lambda x: x[0]
    if h.op == "compose":
        outer, inner = hom_fn(h.parts[0]), hom_fn(h.parts[1])
        return lambda x: outer(inner(x))
    raise TypeMismatch(f"unknown hom constructor {h.op!r}")


def hom_apply(h: Hom, x: GElem) -> GElem:
    g_check(h.source, x)
    return hom_fn(h)(x)


def hom_is_constant_unit(h: Hom) -> bool:
    """True when the hom provably maps everything to the target unit."""
    if h.op == "unit":
        return True
    if h.op == "compose":
        return any(hom_is_constant_unit(p) for p in h.parts)
    return group_is_trivial(h.source) or group_is_trivial(h.target)


@dataclass
class HomCheckReport:
    ok: bool
    checked: int
    failures: list[str]


def hom_check(h: Hom, samples: int = 1000) -> HomCheckReport:
    """Verify op/unit/inverse/order preservation on enumerated sample pairs."""
    fn = hom_fn(h)
    src, dst = h.source, h.target
    cmp_s, cmp_d = cmp_fn(src), cmp_fn(dst)
    op_s, op_d = op_fn(src), op_fn(dst)
    inv_s, inv_d = inv_fn(src), inv_fn(dst)
    failures: list[str] = []
    if fn(g_unit(src)) != g_unit(dst):
        failures.append("unit not preserved")
    pool = list(islice(g_enumerate(src), max(2, math.isqrt(samples) + 1)))
    checked = 0
    for x in pool:
        if fn(inv_s(x)) != inv_d(fn(x)):
            failures.append(f"inverse not preserved at {x!r}")
    for x in pool:
        for y in pool:
            if checked >= samples:
                break
            checked += 1
            if fn(op_s(x, y)) != op_d(fn(x), fn(y)):
                failures.append(f"operation not preserved at ({x!r}, {y!r})")
            if cmp_s(x, y) <= 0 and cmp_d(fn(x), fn(y)) > 0:
                failures.append(f"order not preserved at ({x!r}, {y!r})")
        if checked >= samples:
            break
    return HomCheckReport(not failures, checked, failures[:10])


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A decidable subgroup of ``ambient`` from the closed DSL."""

    op: str  # whole | int_multiples | int_in_rat | first_zero
    ambient: OGroup
    k: int = 0


def whole(ambient: OGroup) -> Subgroup:
    return Subgroup("whole", ambient)


def int_multiples(k: int) -> Subgroup:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise TypeMismatch(f"int_multiples needs a positive integer, got {k!r}")
    return Subgroup("int_multiples", INT, k=k)


def int_in_rat() -> Subgroup:
    return Subgroup("int_in_rat", RAT)


def first_zero(ambient: Lex) -> Subgroup:
    if not isinstance(ambient, Lex):
        raise TypeMismatch("first_zero needs a lex ambient group")
    return Subgroup("first_zero", ambient)


@lru_cache(maxsize=None)
def member_fn(sub: Subgroup) -> Callable[[GElem], bool]:
    if sub.op == "whole":
        return lambda x: True
    if sub.op == "int_multiples":
        k = sub.k
        return lambda x: x % k == 0
    if sub.op == "int_in_rat":
        return lambda x: x.denominator == 1
    if sub.op == "first_zero":
        u = g_unit(sub.ambient.left)
        return lambda x: x[0] == u
    raise TypeMismatch(f"unknown subgroup constructor {sub.op!r}")


def sub_member(sub: Subgroup, x: GElem) -> bool:
    g_check(sub.ambient, x)
    return member_fn(sub)(x)


@lru_cache(maxsize=None)
def subgroup_is_whole(sub: Subgroup) -> bool:
    """True when the member set provably equals the whole ambient group."""
    if sub.op == "whole":
        return True
    if sub.op == "int_multiples":
        return sub.k == 1
    if sub.op == "first_zero":
        return group_is_trivial(sub.ambient.left)
    return False


# ---------------------------------------------------------------------------
# textual element grammar: `3`, `-7`, `3/4`, `(1,2/3)`, `e`


_INT_RE = re.compile(r"^[+-]?\d+$")


def format_gelem(group: OGroup, x: GElem) -> str:
    g_check(group, x)
    return _format_gelem(group, x)


def _format_gelem(group: OGroup, x: GElem) -> str:
    if isinstance(group, Trivial):
        return "e"
    if isinstance(group, Int):
        return str(x)
    if isinstance(group, Rat):
        return f"{x.numerator}/{x.denominator}"
    return f"({_format_gelem(group.left, x[0])},{_format_gelem(group.right, x[1])})"


def parse_gelem(group: OGroup, text: str) -> GElem:
    x = _parse_gelem(group, text.strip())
    g_check(group, x)
    return x


def _split_pair(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ParseError(f"pair literal without top-level comma: {body!r}")


def _parse_gelem(group: OGroup, text: str) -> GElem:
    if isinstance(group, Trivial):
        if text != "e":
            raise ParseError(f"trivial-group element must be 'e', got {text!r}")
        return UNIT
    if isinstance(group, Int):
        if not _INT_RE.match(text):
            raise ParseError(f"bad integer literal {text!r}")
        return int(text)
    if isinstance(group, Rat):
        num, slash, den = text.partition("/")
        if not _INT_RE.match(num) or (slash and not _INT_RE.match(den)):
            raise ParseError(f"bad rational literal {text!r}")
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"lex element must be a parenthesized pair, got {text!r}")
    left, right = _split_pair(text[1:-1])
    return (_parse_gelem(group.left, left.strip()), _parse_gelem(group.right, right.strip()))


# ---------------------------------------------------------------------------
# JSON encodings for groups, homs, subgroups


def group_to_json(group: OGroup):
    if isinstance(group, Trivial):
        return "trivial"
    if isinstance(group, Int):
        return "int"
    if isinstance(group, Rat):
        return "rat"
    return {"lex": [group_to_json(group.left), group_to_json(group.right)]}


def group_from_json(doc) -> OGroup:
    if doc == "trivial":
        return TRIVIAL
    if doc == "int":
        return INT
    if doc == "rat":
        return RAT
    if isinstance(doc, dict) and set(doc) == {"lex"}:
        pair = doc["lex"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"lex group needs a two-element list, got {pair!r}")
        return Lex(group_from_json(pair[0]), group_from_json(pair[1]))
    raise ParseError(f"unknown group encoding {doc!r}")


def subgroup_to_json(sub: Subgroup):
    if sub.op == "whole":
        return "whole"
    if sub.op == "int_multiples":
        return {"int_multiples": sub.k}
    if sub.op == "int_in_rat":
        return "int_in_rat"
    return "first_zero"


def subgroup_from_json(doc, ambient: OGroup) -> Subgroup:
    if doc == "whole":
        return whole(ambient)
    if doc == "int_in_rat":
        if ambient != RAT:
            raise ParseError("int_in_rat needs a rational ambient group")
        return int_in_rat()
    if doc == "first_zero":
        if not isinstance(ambient, Lex):
            raise ParseError("first_zero needs a lex ambient group")
        return first_zero(ambient)
    if isinstance(doc, dict) and set(doc) == {"int_multiples"}:
        if ambient != INT:
            raise ParseError("int_multiples needs an integer ambient group")
        try:
            return int_multiples(doc["int_multiples"])
        except TypeMismatch as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"unknown subgroup encoding {doc!r}")


def hom_to_json(h: Hom):
    if h.op == "unit":
        return "unit"
    if h.op == "id":
        return "id"
    if h.op == "scale_int":
        return {"scale_int": h.k}
    if h.op == "int_to_rat":
        return "int_to_rat"
    if h.op == "inject_first":
        return "inject_first"
    if h.op == "project_first":
        return "project_first"
    return {"compose": [hom_to_json(h.parts[0]), hom_to_json(h.parts[1])]}


def _infer_target(doc, source: OGroup) -> OGroup | None:
    if doc == "id":
        return source
    if doc in ("unit", "inject_first"):
        return None
    if doc == "int_to_rat":
        return RAT
    if doc == "project_first":
        return source.left if isinstance(source, Lex) else None
    if isinstance(doc, dict) and "scale_int" in doc:
        return INT
    if isinstance(doc, dict) and "compose" in doc:
        outer, inner = doc["compose"]
        mid = _infer_target(inner, source)
        return None if mid is None else _infer_target(outer, mid)
    return None


def _infer_source(doc, target: OGroup) -> OGroup | None:
    if doc == "id":
        return target
    if doc in ("unit", "project_first"):
        return None
    if doc == "int_to_rat":
        return INT
    if doc == "inject_first":
        return target.left if isinstance(target, Lex) else None
    if isinstance(doc, dict) and "scale_int" in doc:
        return INT
    if isinstance(doc, dict) and "compose" in doc:
        outer, inner = doc["compose"]
        mid = _infer_source(outer, target)
        return None if mid is None else _infer_source(inner, mid)
    return None


def hom_from_json(doc, source: OGroup, target: OGroup) -> Hom:
    """Decode a hom document against the source/target known from context."""
    if doc == "unit":
        return unit_map(source, target)
    if doc == "id":
        if source != target:
            raise ParseError(f"id hom needs equal source and target, got {source!r} -> {target!r}")
        return identity(source)
    if doc == "int_to_rat":
        if source != INT or target != RAT:
            raise ParseError("int_to_rat must go from int to rat")
        return int_to_rat()
    if doc == "inject_first":
        if not (isinstance(target, Lex) and target.left == source):
            raise ParseError("inject_first target must be lex with left factor equal to the source")
        return inject_first(target)
    if doc == "project_first":
        if not (isinstance(source, Lex) and source.left == target):
            raise ParseError("project_first source must be lex with left factor equal to the target")
        return project_first(source)
    if isinstance(doc, dict) and set(doc) == {"scale_int"}:
        if source != INT or target != INT:
            raise ParseError("scale_int must go from int to int")
        try:
            return scale_int(doc["scale_int"])
        except TypeMismatch as e:
            raise ParseError(str(e)) from None
    if isinstance(doc, dict) and set(doc) == {"compose"}:
        pair = doc["compose"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"compose needs [outer, inner], got {pair!r}")
        outer_doc, inner_doc = pair
        mid = _infer_target(inner_doc, source)
        if mid is None:
            mid = _infer_source(outer_doc, target)
        if mid is None:
            raise ParseError("cannot infer the intermediate group of a compose; "
                             "use determined stages such as scale_int or int_to_rat")
        return hom_compose(hom_from_json(outer_doc, mid, target),
                           hom_from_json(inner_doc, source, mid))
    raise ParseError(f"unknown hom encoding {doc!r}")
