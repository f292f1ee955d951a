"""The chain laws on bunches and elements that the enumerated pools miss.

``check_chain_laws`` samples its triples from the first enumerated elements,
which all lie near the layer units, and ``fixtures.random_bunch`` draws at
most a few layers with lex depth 1.  The strategies here draw bunches with
up to 8 layers and lex groups nested up to 3 deep, valid by construction,
and elements with coordinates up to 10**30 on any layer, so that the laws
are also checked directly on triples far from the units and from each other.

The same bunches, with the fixtures and seeded random and finite bunches,
also pin the two invariants that one-triangle pair scans rely on:
`Chain.compare` is antisymmetric and `Chain.mul` commutative on every pair.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from hypothesis import given, settings, strategies as st

from layerlat import fixtures, ogroup as og
from layerlat.bunch import Bunch, validate
from layerlat.chain import Chain, ChainElement, check_chain_laws

LEAVES = st.sampled_from([og.TRIVIAL, og.INT, og.RAT])
HUGE = 10 ** 30


def lex_depth(group: og.OGroup) -> int:
    if isinstance(group, og.Lex):
        return 1 + max(lex_depth(group.left), lex_depth(group.right))
    return 0


def groups(depth: int) -> st.SearchStrategy:
    if depth == 0:
        return LEAVES
    return st.one_of(LEAVES, st.builds(og.Lex, groups(depth - 1), groups(depth - 1)))


DISCRETE = st.one_of(st.just(og.INT), st.builds(og.Lex, groups(2), st.just(og.INT)),
                     st.just(og.Lex(og.INT, og.TRIVIAL)))


def next_group(draw, below: og.OGroup) -> og.OGroup:
    """A group for the layer above ``below``: often related to it, so that
    steps other than the constant unit are possible."""
    kind = draw(st.sampled_from(["fresh", "same", "same", "left", "wider", "wider"]))
    if kind == "same":
        return below
    if kind == "left" and isinstance(below, og.Lex):
        return below.left
    if kind == "wider" and lex_depth(below) < 3:
        return og.Lex(below, draw(LEAVES))
    return draw(groups(3))


def subgroups(group: og.OGroup) -> st.SearchStrategy:
    options = [st.just(og.whole(group))]
    if group == og.INT:
        options.append(st.builds(og.int_multiples, st.integers(2, 4)))
    elif group == og.RAT:
        options.append(st.just(og.int_in_rat()))
    elif isinstance(group, og.Lex):
        options.append(st.just(og.first_zero(group)))
    return st.one_of(options)


def steps(src: og.OGroup, dst: og.OGroup, dst_sub: og.Subgroup | None) -> list[og.Hom]:
    """Homs src -> dst; when ``dst_sub`` is a proper subgroup, only homs
    that land in it for every input, so that G3 holds for every composite
    transition that ends with this step."""
    options = [og.unit_map(src, dst)]
    if src == dst:
        options.append(og.identity(src))
    if src == dst == og.INT:
        options += [og.scale_int(k) for k in (2, 3, 6)]
    if src == og.INT and dst == og.RAT:
        options += [og.int_to_rat(), og.hom_compose(og.int_to_rat(), og.scale_int(3))]
    if isinstance(dst, og.Lex) and dst.left == src:
        options.append(og.inject_first(dst))
    if isinstance(src, og.Lex) and src.left == dst:
        options.append(og.project_first(src))
    if dst_sub is None or og.subgroup_is_whole(dst_sub):
        return options

    def lands(h: og.Hom) -> bool:
        if og.hom_is_constant_unit(h):
            return True
        if dst_sub.op == "int_multiples":
            return h.op == "scale_int" and h.k % dst_sub.k == 0
        if dst_sub.op == "int_in_rat":
            return h.op in ("int_to_rat", "compose")
        return False

    return [h for h in options if lands(h)]


@st.composite
def bunches(draw, max_layers: int = 8) -> Bunch:
    n = draw(st.integers(1, max_layers))
    labels = tuple("t" if i == 0 else f"u{i}" for i in range(n))
    partition, group_of = {}, {}
    for i, u in enumerate(labels):
        cls = draw(st.sampled_from(("O", "J", "I") if i == 0 else ("J", "I", "I")))
        group = draw(groups(3)) if i == 0 else next_group(draw, group_of[labels[i - 1]])
        if cls == "J" and not og.is_discrete(group):
            group = draw(DISCRETE)
        partition[u], group_of[u] = cls, group
    subs = {u: draw(subgroups(group_of[u])) for u in labels if partition[u] == "I"}
    step_of = {}
    for u, v in zip(labels, labels[1:]):
        if partition[u] == "J":
            # a class-J layer's transitions must collapse the unit's lower cover
            step_of[(u, v)] = og.unit_map(group_of[u], group_of[v])
        else:
            options = steps(group_of[u], group_of[v], subs.get(v))
            moving = [h for h in options if not og.hom_is_constant_unit(h)]
            if moving and draw(st.integers(0, 3)):
                options = moving
            step_of[(u, v)] = draw(st.sampled_from(options))
    b = Bunch(labels, partition, group_of, subs, step_of)
    report = validate(b, samples=20)
    assert report.ok, report.render()
    return b


def coordinates(group: og.OGroup) -> st.SearchStrategy:
    """Elements of ``group``, small or with coordinates up to 10**30."""
    if isinstance(group, og.Trivial):
        return st.just(og.UNIT)
    ints = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))
    if isinstance(group, og.Int):
        return ints
    if isinstance(group, og.Rat):
        return st.builds(Fraction, ints, st.one_of(st.integers(1, 4), st.integers(1, HUGE))).map(
            lambda q: (q.numerator, q.denominator))
    return st.tuples(coordinates(group.left), coordinates(group.right))


def into_subgroup(sub: og.Subgroup, g):
    """An element of ``sub`` built from ``g``."""
    if sub.op == "int_multiples":
        return g * sub.k
    if sub.op == "int_in_rat":
        return (g[0], 1)
    if sub.op == "first_zero":
        return (og.g_unit(sub.ambient.left), g[1])
    return g


@st.composite
def elements(draw, chain: Chain) -> ChainElement:
    b = chain.bunch
    u = draw(st.sampled_from(b.skeleton))
    g = draw(coordinates(b.groups[u]))
    dotted = False
    if b.partition[u] == "I" and draw(st.booleans()):
        g, dotted = into_subgroup(b.subgroups[u], g), True
    x = ChainElement(u, g, dotted)
    chain.check_element(x)
    return x


@settings(deadline=None, max_examples=40)
@given(bunches())
def test_sampled_laws_hold_on_long_nested_bunches(b):
    report = check_chain_laws(Chain(b), samples=300, seed=0)
    assert report.ok, report.render()


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_laws_hold_on_far_apart_triples(data):
    chain = Chain(data.draw(bunches()))
    cmp, mul, neg = chain.compare, chain.mul, chain.negate
    for _ in range(5):
        x, y, z = (data.draw(elements(chain)) for _ in range(3))
        assert cmp(x, y) == -cmp(y, x)
        assert (cmp(x, y) == og.EQ) == (x == y)
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        if cmp(x, y) <= 0:
            assert cmp(mul(x, z), mul(y, z)) <= 0
        # adjointness: x * y <= z exactly when y <= x -> z
        assert (cmp(mul(x, y), z) <= 0) == (cmp(y, chain.residuum(x, z)) <= 0)
        assert neg(neg(x)) == x


def assert_antisymmetric_and_commutative(chain: Chain, pool: list[ChainElement]) -> None:
    cmp, mul = chain.compare, chain.mul
    for i, x in enumerate(pool):
        for y in pool[i:]:
            assert cmp(x, y) == -cmp(y, x), (x, y)
            assert mul(x, y) == mul(y, x), (x, y)


def test_compare_antisymmetric_and_mul_commutative_on_enumerated_pools():
    rng = random.Random(5)
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.finite_bunch(n) for n in range(1, 41)]
    bunches += [fixtures.random_bunch(rng, max_layers=8) for _ in range(200)]
    for b in bunches:
        chain = Chain(b)
        assert_antisymmetric_and_commutative(chain, list(islice(chain.enumerate_elements(), 64)))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_compare_antisymmetric_and_mul_commutative_far_from_the_units(data):
    chain = Chain(data.draw(bunches()))
    pool = list(islice(chain.enumerate_elements(), 64))
    pool += [data.draw(elements(chain)) for _ in range(8)]
    assert_antisymmetric_and_commutative(chain, pool)
