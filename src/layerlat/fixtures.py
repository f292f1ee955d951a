"""Canonical example bunches used across the test suite and docs.

s3   three-element odd chain: a trivial class-I layer over a trivial unit layer
zb   bounded integers: Int unit layer capped by a trivial class-I layer
ze   even integers: a single discrete class-J layer
lz   two Int layers, identity step, whole subgroup
lz2  like lz but with the even-multiples subgroup and a doubling step
jz   odd chain with a discrete class-J layer above a trivial unit layer
"""

from __future__ import annotations

import random

from . import ogroup as og
from .bunch import Bunch, _audit


def s3() -> Bunch:
    return Bunch(
        skeleton=("t", "u"),
        partition={"t": "O", "u": "I"},
        groups={"t": og.TRIVIAL, "u": og.TRIVIAL},
        subgroups={"u": og.whole(og.TRIVIAL)},
        steps={("t", "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)},
    )


def zb() -> Bunch:
    return Bunch(
        skeleton=("t", "u"),
        partition={"t": "O", "u": "I"},
        groups={"t": og.INT, "u": og.TRIVIAL},
        subgroups={"u": og.whole(og.TRIVIAL)},
        steps={("t", "u"): og.unit_map(og.INT, og.TRIVIAL)},
    )


def ze() -> Bunch:
    return Bunch(
        skeleton=("t",),
        partition={"t": "J"},
        groups={"t": og.INT},
        subgroups={},
        steps={},
    )


def lz() -> Bunch:
    return Bunch(
        skeleton=("t", "u"),
        partition={"t": "O", "u": "I"},
        groups={"t": og.INT, "u": og.INT},
        subgroups={"u": og.whole(og.INT)},
        steps={("t", "u"): og.identity(og.INT)},
    )


def lz2() -> Bunch:
    return Bunch(
        skeleton=("t", "u"),
        partition={"t": "O", "u": "I"},
        groups={"t": og.INT, "u": og.INT},
        subgroups={"u": og.int_multiples(2)},
        steps={("t", "u"): og.scale_int(2)},
    )


def jz() -> Bunch:
    return Bunch(
        skeleton=("t", "u"),
        partition={"t": "O", "u": "J"},
        groups={"t": og.TRIVIAL, "u": og.INT},
        subgroups={},
        steps={("t", "u"): og.unit_map(og.TRIVIAL, og.INT)},
    )


def trivial_bunch() -> Bunch:
    return Bunch(("t",), {"t": "O"}, {"t": og.TRIVIAL}, {}, {})


ALL = {"s3": s3, "zb": zb, "ze": ze, "lz": lz, "lz2": lz2, "jz": jz}


def finite_bunch(n: int) -> Bunch:
    """The unique all-trivial bunch whose chain has exactly n elements.

    Odd n needs a class-O least layer plus (n-1)/2 class-I layers; even n
    needs n/2 class-I layers.  Class-J layers cannot occur in finite chains
    because discrete groups are infinite.
    """
    if n < 1:
        raise ValueError("chain size must be positive")
    labels = ("t",) + tuple(f"u{i}" for i in range(1, (n + 1) // 2))
    partition = {u: "O" if u == "t" and n % 2 else "I" for u in labels}
    groups = {u: og.TRIVIAL for u in labels}
    subgroups = {u: og.whole(og.TRIVIAL) for u in labels if partition[u] == "I"}
    steps = {(labels[i], labels[i + 1]): og.unit_map(og.TRIVIAL, og.TRIVIAL)
             for i in range(len(labels) - 1)}
    return Bunch(labels, partition, groups, subgroups, steps)


_GROUP_POOL = (og.TRIVIAL, og.INT, og.RAT, og.Lex(og.INT, og.INT), og.Lex(og.INT, og.RAT))
_DISCRETE_POOL = (og.INT, og.Lex(og.INT, og.INT))


def _subgroup_options(group: og.OGroup) -> list[og.Subgroup]:
    options = [og.whole(group)]
    if group == og.INT:
        options += [og.int_multiples(2), og.int_multiples(3)]
    elif group == og.RAT:
        options.append(og.int_in_rat())
    elif isinstance(group, og.Lex):
        options.append(og.first_zero(group))
    return options


def _step_options(src: og.OGroup, dst: og.OGroup, dst_sub: og.Subgroup | None) -> list[og.Hom]:
    options = [og.unit_map(src, dst)]
    if src == dst:
        options.append(og.identity(src))
    if src == og.INT and dst == og.INT:
        options += [og.scale_int(2), og.scale_int(3)]
    if src == og.INT and dst == og.RAT:
        options += [og.int_to_rat(), og.hom_compose(og.int_to_rat(), og.scale_int(2))]
    if isinstance(dst, og.Lex) and dst.left == src:
        options.append(og.inject_first(dst))
    if isinstance(src, og.Lex) and src.left == dst:
        options.append(og.project_first(src))
    if dst_sub is None or og.subgroup_is_whole(dst_sub):
        return options
    landing = []
    for h in options:
        if og.hom_is_constant_unit(h):
            landing.append(h)
        elif dst_sub.op == "int_multiples" and h.op == "scale_int" and h.k % dst_sub.k == 0:
            landing.append(h)
        elif dst_sub.op == "int_in_rat" and h.op in ("int_to_rat", "compose"):
            landing.append(h)
    return landing or [og.unit_map(src, dst)]


def random_bunch(rng: random.Random, max_layers: int = 3) -> Bunch:
    """A seeded random bunch, guaranteed valid by construction and checked.
    After a class-J layer it always steps by `unit_map`, so it never draws
    the valid J-then-`project_first` shape (ROADMAP item 17's gap)."""
    n_layers = rng.randint(1, max_layers)
    labels = tuple("t" if i == 0 else f"u{i}" for i in range(n_layers))
    partition = {}
    groups = {}
    for i, u in enumerate(labels):
        cls = rng.choice(("O", "J", "I")) if i == 0 else rng.choice(("J", "I"))
        partition[u] = cls
        groups[u] = rng.choice(_DISCRETE_POOL if cls == "J" else _GROUP_POOL)
    subgroups = {u: rng.choice(_subgroup_options(groups[u]))
                 for u in labels if partition[u] == "I"}
    steps = {}
    for i in range(n_layers - 1):
        u, v = labels[i], labels[i + 1]
        if partition[u] == "J":
            steps[(u, v)] = og.unit_map(groups[u], groups[v])
            continue
        options = _step_options(groups[u], groups[v], subgroups.get(v))
        steps[(u, v)] = rng.choice(options)
    b = Bunch(labels, partition, groups, subgroups, steps)
    if not (audit := _audit(b, 100)).ok:
        raise AssertionError("random bunch generator produced an invalid bunch:\n"
                             + audit.report().render())
    return b
