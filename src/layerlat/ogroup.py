"""Decidable abelian ordered groups, order homomorphisms, and subgroups.

Groups come from a closed constructor family (trivial, integers, rationals,
binary lexicographic products), so comparison, covers, enumeration, and
subgroup membership all stay decidable.  Element values are plain Python
data: the unit mark, exact ints, reduced int pairs, and nested pairs.

Groups, subgroups and homs are hash-consed (Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006): a constructor returns the one
object that holds its value, from the module-level pool ``_POOL`` keyed by
``(class, *fields)``.  The fields are interned already, so a key hashes in C,
and equality and hashing are `object`'s, by identity, in C too: the
`lru_cache`d compilers below and `Chain`'s set-up hash a group with no
Python frame.  ``__new__`` builds the object only on a pool miss, and no
``__init__`` runs (the dataclasses have ``init=False``); pickling and
copying rebuild through the constructor, so they return the pooled object.
The pool is a plain dict, never a `functools` cache and never cleared:
emptying it would let ``Int()`` build a second object while `INT` and every
bunch built before still hold the first, and identity equality would call
them different.  It holds one object per distinct value ever built, and
bunches share those objects where each used to hold its own copies; a
process that meets unboundedly many distinct values (scale factors, say)
grows it, as `hom_fn`'s unbounded cache grows with the homs it compiles.
Folding a long skeleton does not: `hom_compose`'s normal form bounds a
composite's length by its source and target, not by the steps it folds.
A `WeakValueDictionary` would free them, at the cost of a Python-level
lookup on every construction.

A `Rat` value, alone or as a `Lex` factor, is a reduced pair of ints ``(n,
d)`` with ``d > 0``, the one canonical form of a rational: equal values are
equal tuples, so they hash and compare in C.  `cmp_fn`, `op_fn` and `inv_fn`
compile it to integer kernels.  No compiled function type-checks: only
reduced pairs enter a `Rat` layer (through `parse_gelem`, `g_enumerate`,
`g_unit`, ``int_to_rat``); `g_check` rejects the rest.

The module also owns the textual/JSON encodings for groups, elements, homs,
and subgroups used by bunch files and the CLI.  `hom_check` tests the hom
laws and returns a `report.Report`, one `Check` per property.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator

from .errors import ParseError, TypeMismatch
from .report import HOM, Check, Report

LT, EQ, GT = -1, 0, 1
ORDERING_NAMES = {LT: "LT", EQ: "EQ", GT: "GT"}


class _UnitMark:
    """Hashed and compared by identity, in C; pickled by name, as `UNIT`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "e"

    def __reduce__(self) -> str:
        return "UNIT"


#: The single element of the trivial group.
UNIT = _UnitMark()


#: The hash-cons pool: (class, *fields) -> the one object with that value.
_POOL: dict[tuple, object] = {}


class _Interned:
    """Base of the hash-consed DSL values (see the module docstring).  Its
    ``__new__`` serves the classes without fields; the others key the pool
    with every field, defaults bound, and call ``_intern`` on a miss."""

    def __new__(cls):
        key = (cls,)
        return _POOL.get(key) or cls._intern(key)

    @classmethod
    def _intern(cls, key: tuple):
        self = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, key[1:]):
            object.__setattr__(self, name, value)
        return _POOL.setdefault(key, self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass(frozen=True, eq=False, init=False)
class Trivial(_Interned):
    def __repr__(self) -> str:
        return "Trivial()"


@dataclass(frozen=True, eq=False, init=False)
class Int(_Interned):
    def __repr__(self) -> str:
        return "Int()"


@dataclass(frozen=True, eq=False, init=False)
class Rat(_Interned):
    def __repr__(self) -> str:
        return "Rat()"


@dataclass(frozen=True, eq=False, init=False)
class Lex(_Interned):
    left: "OGroup"
    right: "OGroup"

    def __new__(cls, left: "OGroup", right: "OGroup") -> "Lex":
        key = (cls, left, right)
        return _POOL.get(key) or cls._intern(key)


OGroup = Trivial | Int | Rat | Lex
GElem = _UnitMark | int | tuple

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
        if not (isinstance(x, tuple) and len(x) == 2 and type(x[0]) is type(x[1]) is int
                and x[1] > 0 and math.gcd(*x) == 1):
            raise TypeMismatch(f"expected a reduced pair (n, d) with d > 0, got {x!r}")
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
        return (0, 1)
    return (g_unit(group.left), g_unit(group.right))


def _rat_cmp(a: tuple, b: tuple) -> int:
    x, y = a[0] * b[1], b[0] * a[1]
    return (x > y) - (x < y)


def _rat_add(a: tuple, b: tuple) -> tuple:
    """a + b in lowest terms by the gcd steps of ``Fraction._add``."""
    na, da = a
    nb, db = b
    if da == db:
        g = math.gcd(na + nb, da)
        return (na + nb) // g, da // g
    g = math.gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    return t // g2, s * (db // g2)


@lru_cache(maxsize=None)
def cmp_fn(group: OGroup) -> Callable[[GElem, GElem], int]:
    """Compiled three-way comparison (no type checks); `Rat` cross-multiplies."""
    if isinstance(group, Trivial):
        return lambda a, b: EQ
    if isinstance(group, (Int, Rat)):
        return _rat_cmp if isinstance(group, Rat) else lambda a, b: (a > b) - (a < b)
    left, right = cmp_fn(group.left), cmp_fn(group.right)
    return lambda a, b: left(a[0], b[0]) or right(a[1], b[1])


@lru_cache(maxsize=None)
def op_fn(group: OGroup) -> Callable[[GElem, GElem], GElem]:
    """Compiled group operation (componentwise addition); `Rat` adds by gcds."""
    if isinstance(group, Trivial):
        return lambda a, b: UNIT
    if isinstance(group, (Int, Rat)):
        return _rat_add if isinstance(group, Rat) else operator.add
    left, right = op_fn(group.left), op_fn(group.right)
    return lambda a, b: (left(a[0], b[0]), right(a[1], b[1]))


@lru_cache(maxsize=None)
def inv_fn(group: OGroup) -> Callable[[GElem], GElem]:
    """Compiled inverse; `Rat` negates the numerator."""
    if isinstance(group, Trivial):
        return lambda a: UNIT
    if isinstance(group, Rat):
        return lambda a: (-a[0], a[1])
    if isinstance(group, Int):
        return operator.neg
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


@lru_cache(maxsize=None)
def cover_fn(group: OGroup, step: int) -> Callable[[GElem], GElem | None]:
    """Compiled cover (no type checks): x -> its upper (step 1) or lower
    (step -1) cover, or None in a group that is not discrete."""
    if not is_discrete(group):
        return lambda x: None
    if isinstance(group, Int):
        return lambda x: x + step
    if not group_is_trivial(group.right):  # a discrete Lex: the ruling factor covers
        right = cover_fn(group.right, step)
        return lambda x: (x[0], right(x[1]))
    left = cover_fn(group.left, step)
    return lambda x: (left(x[0]), x[1])


def g_cover_up(group: OGroup, x: GElem) -> GElem | None:
    """The unique upper cover of ``x``, or None in dense/trivial groups."""
    g_check(group, x)
    return cover_fn(group, 1)(x)


def g_cover_down(group: OGroup, x: GElem) -> GElem | None:
    g_check(group, x)
    return cover_fn(group, -1)(x)


def _rationals() -> Iterator[tuple]:
    # 0 first, then each positive rational of the Calkin-Wilf walk with its
    # negative right behind it: n/d steps to d/((2*(n//d) + 1)*d - n), coprime.
    yield 0, 1
    n = d = 1
    while True:
        yield n, d
        yield -n, d
        n, d = d, (2 * (n // d) + 1) * d - n


def _integers() -> Iterator[int]:
    yield 0
    for k in count(1):
        yield k
        yield -k


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


@dataclass(frozen=True, eq=False, init=False)
class Hom(_Interned):
    """An order-preserving group homomorphism from the closed DSL.

    ``op`` is one of unit/id/scale_int/int_to_rat/inject_first/project_first/
    compose; ``parts`` holds (outer, inner) for compose.
    """

    op: str
    source: OGroup
    target: OGroup
    k: int = 0
    parts: tuple["Hom", ...] = ()

    def __new__(cls, op: str, source: OGroup, target: OGroup, k: int = 0,
                parts: tuple["Hom", ...] = ()) -> "Hom":
        key = (cls, op, source, target, k, parts)
        return _POOL.get(key) or cls._intern(key)


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
    """``outer`` after ``inner``, in normal form.  A composite is
    right-nested, ``parts`` being (last stage, rest); an ``outer`` composite
    is folded in one stage at a time.  A constant stage
    (`hom_is_constant_unit`) on either side makes the whole composite
    `unit_map`; otherwise an ``id`` stage is dropped, adjacent ``scale_int``
    stages merge, and ``project_first(L)`` right after ``inject_first(L)``
    cancels (the reverse pair sends (a, b) to (a, 0) and stays).

    So a composite is some project_first stages, at most one scale_int and
    one int_to_rat, then some inject_first stages: at most spine(source) +
    spine(target) + 2 stages, spine being the depth of a group's left
    factors, however many steps it folds: `hom_fn` nests a closure per stage."""
    if inner.target != outer.source:
        raise TypeMismatch(
            f"cannot compose: inner target {inner.target!r} != outer source {outer.source!r}"
        )
    stages = [outer]
    while stages[-1].op == "compose":
        stages[-1:] = stages[-1].parts
    for stage in reversed(stages):
        inner = _then(stage, inner)
    return inner


def _then(stage: Hom, inner: Hom) -> Hom:
    """The one stage ``stage`` after ``inner``, a hom in normal form."""
    if hom_is_constant_unit(stage) or hom_is_constant_unit(inner):
        return unit_map(inner.source, stage.target)
    if stage.op == "id":
        return inner
    if inner.op == "id":
        return stage
    last, rest = inner.parts if inner.op == "compose" else (inner, None)
    if stage.op == last.op == "scale_int":
        stage, inner = scale_int(stage.k * last.k), rest
    elif stage.op == "project_first" and last.op == "inject_first":
        return identity(stage.target) if rest is None else rest
    return stage if inner is None else Hom("compose", inner.source, stage.target,
                                           parts=(stage, inner))


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
        return lambda x: (x, 1)
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
    """True when the hom maps everything to the target unit.  In
    `hom_compose`'s normal form a composite holds no constant stage, so
    these are the ``unit`` maps and the homs from or to a trivial group."""
    return h.op == "unit" or group_is_trivial(h.source) or group_is_trivial(h.target)


def hom_check(h: Hom, samples: int = 1000) -> Report:
    """Verify unit, inverse, operation and order preservation on enumerated
    sample pairs: a `report.Report` with one `Check` per property, carrying
    the number of elements or pairs tried and the first failure."""
    fn = hom_fn(h)
    src, dst = h.source, h.target
    cmp_s, cmp_d = cmp_fn(src), cmp_fn(dst)
    op_s, op_d = op_fn(src), op_fn(dst)
    inv_s, inv_d = inv_fn(src), inv_fn(dst)
    pool = list(islice(g_enumerate(src), max(2, math.isqrt(samples) + 1)))
    pairs = list(islice(((x, y) for x in pool for y in pool), samples))

    def check(prop: str, method: str, bad, tried: int, message: str) -> Check:
        return Check(prop, h.op, bad is None, method,
                     "" if bad is None else message.format(bad), tried, bad)

    unit = g_unit(src)
    return Report([
        check("unit", "exact", None if fn(unit) == g_unit(dst) else unit, 1,
              "unit not preserved"),
        check("inverse", "sampled", next((x for x in pool if fn(inv_s(x)) != inv_d(fn(x))), None),
              len(pool), "inverse not preserved at {!r}"),
        check("operation", "sampled", next(((x, y) for x, y in pairs
                                            if fn(op_s(x, y)) != op_d(fn(x), fn(y))), None),
              len(pairs), "operation not preserved at {!r}"),
        check("order", "sampled", next(((x, y) for x, y in pairs
                                        if cmp_s(x, y) <= 0 and cmp_d(fn(x), fn(y)) > 0), None),
              len(pairs), "order not preserved at {!r}"),
    ], len(pairs), HOM)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True, eq=False, init=False)
class Subgroup(_Interned):
    """A decidable subgroup of ``ambient`` from the closed DSL."""

    op: str  # whole | int_multiples | int_in_rat | first_zero
    ambient: OGroup
    k: int = 0

    def __new__(cls, op: str, ambient: OGroup, k: int = 0) -> "Subgroup":
        key = (cls, op, ambient, k)
        return _POOL.get(key) or cls._intern(key)


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
        return lambda x: x[1] == 1
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


def digits(n: int) -> str:
    """``str(n)`` for an int, also past the int-to-string digit limit."""
    try:  # str(Decimal(n)) is exact, and not bounded by the int-to-string digit limit
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _format_gelem(group: OGroup, x: GElem) -> str:
    if isinstance(group, Trivial):
        return "e"
    if isinstance(group, Int):
        return digits(x)
    if isinstance(group, Rat):
        return f"{digits(x[0])}/{digits(x[1])}"
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


def _int_literal(text: str) -> int:
    """``int(text)`` for a literal matching _INT_RE; a literal longer than the
    interpreter's int-to-string digit limit is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} characters exceeds the "
                         f"digit limit") from None


def _parse_gelem(group: OGroup, text: str) -> GElem:
    if isinstance(group, Trivial):
        if text != "e":
            raise ParseError(f"trivial-group element must be 'e', got {text!r}")
        return UNIT
    if isinstance(group, Int):
        if not _INT_RE.match(text):
            raise ParseError(f"bad integer literal {text!r}")
        return _int_literal(text)
    if isinstance(group, Rat):
        num, slash, den = text.partition("/")
        if not _INT_RE.match(num) or (slash and not _INT_RE.match(den)):
            raise ParseError(f"bad rational literal {text!r}")
        n, d = _int_literal(num), _int_literal(den) if slash else 1
        if d == 0:
            raise ParseError(f"rational literal with zero denominator {text!r}")
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        return n // g, d // g
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"lex element must be a parenthesized pair, got {text!r}")
    left, right = _split_pair(text[1:-1])
    return (_parse_gelem(group.left, left.strip()), _parse_gelem(group.right, right.strip()))


# ---------------------------------------------------------------------------
# JSON encodings for groups, homs, subgroups

#: Deepest nesting of lists and objects accepted in a group or hom document;
#: the decoders recurse once per level, so this also bounds their stack use.
MAX_NESTING = 64


def load_json(text: str):
    """``json.loads`` with every malformed document reported as a ParseError,
    including integers past the digit limit and nesting past the stack."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:
        raise ParseError("integer literal exceeds the digit limit") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None


def _check_nesting(doc) -> None:
    """Raise ParseError when ``doc`` nests lists and objects more than
    MAX_NESTING deep; walks one level at a time, without recursion."""
    level = [doc]
    for _ in range(MAX_NESTING + 1):
        level = [d for d in level if isinstance(d, (dict, list))]
        if not level:
            return
        level = [v for d in level for v in (d.values() if isinstance(d, dict) else d)]
    raise ParseError(f"document nests more than {MAX_NESTING} levels deep")


def group_to_json(group: OGroup):
    if isinstance(group, Trivial):
        return "trivial"
    if isinstance(group, Int):
        return "int"
    if isinstance(group, Rat):
        return "rat"
    return {"lex": [group_to_json(group.left), group_to_json(group.right)]}


def group_from_json(doc) -> OGroup:
    _check_nesting(doc)
    return _group_from_json(doc)


def _group_from_json(doc) -> OGroup:
    if doc == "trivial":
        return TRIVIAL
    if doc == "int":
        return INT
    if doc == "rat":
        return RAT
    if isinstance(doc, dict) and set(doc) == {"lex"}:
        pair = doc["lex"]
        if not _is_pair(pair):
            raise ParseError(f"lex group needs a two-element list, got {pair!r}")
        return Lex(_group_from_json(pair[0]), _group_from_json(pair[1]))
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


def _is_pair(doc) -> bool:
    return isinstance(doc, list) and len(doc) == 2


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
    if isinstance(doc, dict) and _is_pair(doc.get("compose")):
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
    if isinstance(doc, dict) and _is_pair(doc.get("compose")):
        outer, inner = doc["compose"]
        mid = _infer_source(outer, target)
        return None if mid is None else _infer_source(inner, mid)
    return None


def hom_from_json(doc, source: OGroup, target: OGroup) -> Hom:
    """Decode a hom document against the source/target known from context."""
    _check_nesting(doc)
    return _hom_from_json(doc, source, target)


def _hom_from_json(doc, source: OGroup, target: OGroup) -> Hom:
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
        if not _is_pair(pair):
            raise ParseError(f"compose needs [outer, inner], got {pair!r}")
        outer_doc, inner_doc = pair
        mid = _infer_target(inner_doc, source)
        if mid is None:
            mid = _infer_source(outer_doc, target)
        if mid is None:
            raise ParseError("cannot infer the intermediate group of a compose; "
                             "use determined stages such as scale_int or int_to_rat")
        return hom_compose(_hom_from_json(outer_doc, mid, target),
                           _hom_from_json(inner_doc, source, mid))
    raise ParseError(f"unknown hom encoding {doc!r}")
