from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, strategies as st

from layerlat import fixtures, ogroup as og
from layerlat.bunch import Bunch, parse_bunch, serialize_bunch, transition
from layerlat.errors import ParseError, TypeMismatch
import model
from guards import alternating

GROUPS = {
    "trivial": og.TRIVIAL,
    "int": og.INT,
    "rat": og.RAT,
    "lex_ii": og.Lex(og.INT, og.INT),
    "lex_ir": og.Lex(og.INT, og.RAT),
    "lex_it": og.Lex(og.INT, og.TRIVIAL),
    "lex_nested": og.Lex(og.Lex(og.INT, og.INT), og.RAT),
}


def pool(group, size):
    return list(islice(og.g_enumerate(group), size))


# -- comparison -------------------------------------------------------------

def test_compare_examples():
    assert og.g_compare(og.INT, 2, 5) == og.LT
    assert og.g_compare(og.Lex(og.INT, og.INT), (1, 9), (2, 0)) == og.LT
    assert og.g_compare(og.RAT, (1, 3), (1, 3)) == og.EQ


def test_compare_type_mismatch():
    with pytest.raises(TypeMismatch):
        og.g_compare(og.INT, 2, (1, 2))
    with pytest.raises(TypeMismatch):
        og.g_op(og.RAT, (1, 1), 1)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_compare_trichotomy_and_transitivity(name):
    group = GROUPS[name]
    elems = pool(group, 12)
    rng = random.Random(7)
    for _ in range(1000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        cxy = og.g_compare(group, x, y)
        assert cxy == -og.g_compare(group, y, x)
        assert (cxy == og.EQ) == (x == y)
        if cxy <= 0 and og.g_compare(group, y, z) <= 0:
            assert og.g_compare(group, x, z) <= 0


# -- group laws --------------------------------------------------------------

def test_op_examples():
    assert og.g_op(og.INT, 2, 3) == 5
    assert og.g_inv(og.Lex(og.INT, og.RAT), (1, (1, 2))) == (-1, (-1, 2))
    for group in GROUPS.values():
        for x in pool(group, 5):
            assert og.g_op(group, x, og.g_unit(group)) == x


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_laws_sampled(name):
    group = GROUPS[name]
    elems = pool(group, 12)
    op, inv, unit = og.op_fn(group), og.inv_fn(group), og.g_unit(group)
    cmp = og.cmp_fn(group)
    rng = random.Random(11)
    for _ in range(1000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert op(x, y) == op(y, x)
        assert op(op(x, y), z) == op(x, op(y, z))
        assert op(x, unit) == x
        assert op(x, inv(x)) == unit
        if cmp(x, y) <= 0:
            assert cmp(op(x, z), op(y, z)) <= 0


# -- discreteness and covers --------------------------------------------------

def test_discreteness_table():
    assert not og.is_discrete(og.TRIVIAL)
    assert og.is_discrete(og.INT)
    assert not og.is_discrete(og.RAT)
    assert og.is_discrete(og.Lex(og.INT, og.INT))
    assert not og.is_discrete(og.Lex(og.INT, og.RAT))
    assert og.is_discrete(og.Lex(og.INT, og.TRIVIAL))
    assert not og.is_discrete(og.Lex(og.RAT, og.TRIVIAL))
    assert og.is_discrete(og.Lex(og.RAT, og.INT))


def test_cover_examples():
    assert og.g_cover_up(og.INT, 4) == 5
    assert og.g_cover_up(og.RAT, (1, 2)) is None
    assert og.g_cover_up(og.TRIVIAL, og.UNIT) is None


def test_lex_cover_exhaustive_window():
    # no pair of the window lies strictly between (0,7) and its claimed cover
    group = og.Lex(og.INT, og.INT)
    up = og.g_cover_up(group, (0, 7))
    assert up == (0, 8)
    for a, b in product(range(-2, 3), range(0, 16)):
        z = (a, b)
        assert not (og.g_compare(group, (0, 7), z) == og.LT
                    and og.g_compare(group, z, up) == og.LT)


@pytest.mark.parametrize("name", ["int", "lex_ii", "lex_it"])
def test_cover_round_trip_on_discrete(name):
    group = GROUPS[name]
    for x in pool(group, 50):
        down = og.g_cover_down(group, x)
        assert down is not None
        assert og.g_cover_up(group, down) == x


def test_compiled_cover_matches_the_recursive_reference():
    groups = list(GROUPS.values()) + [
        og.Lex(og.RAT, og.INT), og.Lex(og.RAT, og.TRIVIAL), og.Lex(og.TRIVIAL, og.INT),
        og.Lex(og.Lex(og.INT, og.TRIVIAL), og.TRIVIAL), og.Lex(og.INT, og.Lex(og.RAT, og.INT))]
    for group in groups:
        for step in (1, -1):
            fn = og.cover_fn(group, step)
            assert og.cover_fn(group, step) is fn
            for x in pool(group, 40):
                c = model.cover(group, model.as_fraction(group, x), step)
                assert fn(x) == (None if c is None else model.as_pair(group, c)), (group, x, step)
                assert (fn(x) is None) == (not og.is_discrete(group))


# -- enumeration ---------------------------------------------------------------

def test_enumerate_declared_orders():
    assert pool(og.TRIVIAL, 5) == [og.UNIT]
    assert pool(og.INT, 5) == [0, 1, -1, 2, -2]
    assert pool(og.Lex(og.INT, og.INT), 3) == [(0, 0), (1, 0), (0, 1)]
    rats = pool(og.RAT, 7)
    assert rats == [(0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_enumerate_no_repeats_and_well_typed(name):
    group = GROUPS[name]
    seen = pool(group, 300)
    assert len(set(seen)) == len(seen)
    for x in seen:
        og.g_check(group, x)


def test_enumerate_rationals_reduced():
    for n, d in pool(og.RAT, 200):
        assert d >= 1 and math.gcd(n, d) == 1


# -- Rat kernels ----------------------------------------------------------------

def reference_rationals():
    """The Calkin-Wilf walk of `_rationals` in Fraction arithmetic, as it ran
    before its step moved to ints."""
    yield Fraction(0)
    q = Fraction(1)
    while True:
        yield q
        yield -q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def assert_same_value(group, got, want):
    """``got`` is a well-typed value of ``group`` (each `Rat` part a reduced
    int pair) that reads as ``want``, where Fractions stand for the pairs."""
    og.g_check(group, got)
    assert (model.as_fraction(group, got), got) == (want, model.as_pair(group, want)), group


def assert_kernels_match(group, pairs):
    """The kernels on the pair form of each (a, b), given with Fractions,
    against the model's, which run Fraction's operators on (a, b)."""
    cmp, op, inv = og.cmp_fn(group), og.op_fn(group), og.inv_fn(group)
    for a, b in pairs:
        x, y = model.as_pair(group, a), model.as_pair(group, b)
        assert_same_value(group, op(x, y), model.add(group, a, b))
        assert_same_value(group, inv(x), model.inverse(group, a))
        assert cmp(x, y) == model.compare_values(group, a, b), (group, a, b)


BIG = 10 ** 40
BIG_FRACTIONS = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


@given(BIG_FRACTIONS, BIG_FRACTIONS)
def test_rat_kernels_match_the_fraction_operators(a, b):
    assert_kernels_match(og.RAT, [(a, b), (b, a), (a, a), (a, -a)])


@given(st.integers(1, BIG), st.integers(-BIG, BIG), st.integers(-BIG, BIG))
def test_rat_kernels_match_on_equal_denominators(d, m, n):
    # two numerators coprime to one denominator, so both keep it
    a, b = Fraction(m * d + 1, d), Fraction(n * d + 1, d)
    assert a.denominator == b.denominator == d
    assert_kernels_match(og.RAT, [(a, b), (a, -a), (a, 1 - a)])


EDGE_RATS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
             Fraction(1, 6), Fraction(-1, 6), Fraction(5, 6), Fraction(7, 6), Fraction(-7, 6),
             Fraction(1, 3), Fraction(-2, 3), Fraction(3, 4), Fraction(BIG), Fraction(-BIG),
             Fraction(1, BIG), Fraction(-1, BIG), Fraction(BIG - 1, BIG), Fraction(BIG + 1, BIG)]


def test_rat_kernels_match_on_zeros_units_and_cancelling_sums():
    assert_kernels_match(og.RAT, product(EDGE_RATS, repeat=2))
    add = og.op_fn(og.RAT)
    for a in EDGE_RATS:
        assert add(model.as_pair(og.RAT, a), model.as_pair(og.RAT, -a)) == (0, 1)
    # equal denominators that cancel to an integer
    assert_same_value(og.RAT, add((1, 6), (5, 6)), Fraction(1))
    assert_same_value(og.RAT, add((7, 6), (-1, 6)), Fraction(1))


def test_rat_kernels_match_on_the_enumerated_rationals():
    points = [Fraction(*q) for q in pool(og.RAT, 2000)]
    n = len(points)
    assert_kernels_match(og.RAT, ((points[i], points[j]) for i in range(n)
                                  for j in (i, (i + 1) % n, n - 1 - i, 7 * i % n)))


@pytest.mark.parametrize("group", [
    og.Lex(og.INT, og.RAT),
    og.Lex(og.RAT, og.RAT),
    og.Lex(og.Lex(og.INT, og.RAT), og.RAT),
], ids=repr)
def test_lex_kernels_over_rat_match_the_fraction_operators(group):
    elems = [model.as_fraction(group, x) for x in pool(group, 60)]
    assert_kernels_match(group, product(elems, repeat=2))


def test_the_integer_walk_is_the_fraction_walk():
    for got, want in zip(pool(og.RAT, 10_000), islice(reference_rationals(), 10_000)):
        assert_same_value(og.RAT, got, want)


def test_int_to_rat_and_int_in_rat_read_the_fraction_they_build():
    to_rat, member = og.hom_fn(og.int_to_rat()), og.member_fn(og.int_in_rat())
    for x in (0, 1, -1, 7, -BIG, BIG):
        assert_same_value(og.RAT, to_rat(x), Fraction(x))
        assert member(to_rat(x))
    for q in EDGE_RATS:
        assert member(model.as_pair(og.RAT, q)) == (q.denominator == 1)


# -- homomorphisms ---------------------------------------------------------------

def catalog_of_homs():
    lex = og.Lex(og.INT, og.RAT)
    return [
        og.unit_map(og.INT, og.RAT),
        og.identity(og.RAT),
        og.scale_int(2),
        og.int_to_rat(),
        og.inject_first(lex),
        og.project_first(lex),
        og.hom_compose(og.int_to_rat(), og.scale_int(3)),
        og.hom_compose(og.project_first(lex), og.inject_first(lex)),
    ]


def test_unit_is_a_singleton_hashed_by_identity():
    assert pickle.loads(pickle.dumps(og.UNIT)) is og.UNIT
    assert copy.deepcopy(og.UNIT) is og.UNIT
    assert type(og.UNIT).__hash__ is object.__hash__
    assert repr(og.UNIT) == "e"


def test_hom_apply_examples():
    assert og.hom_apply(og.scale_int(2), 3) == 6
    unit = og.unit_map(og.INT, og.Lex(og.INT, og.INT))
    for x in (0, 5, -3):
        assert og.hom_apply(unit, x) == (0, 0)
    composed = og.hom_compose(og.int_to_rat(), og.scale_int(3))
    # evaluate both stages independently
    staged = og.hom_apply(og.int_to_rat(), og.hom_apply(og.scale_int(3), 2))
    assert og.hom_apply(composed, 2) == staged == (6, 1)


def test_hom_compose_type_mismatch():
    with pytest.raises(TypeMismatch):
        og.hom_compose(og.scale_int(2), og.int_to_rat())
    # the types are checked before any normalisation rule applies
    with pytest.raises(TypeMismatch):
        og.hom_compose(og.identity(og.RAT), og.scale_int(2))
    with pytest.raises(TypeMismatch):
        og.hom_compose(og.unit_map(og.RAT, og.INT), og.scale_int(2))


def test_hom_compose_drops_id():
    s2 = og.scale_int(2)
    assert og.hom_compose(og.identity(og.INT), s2) == s2
    assert og.hom_compose(s2, og.identity(og.INT)) == s2
    # a reducible compose document therefore serialises in normal form
    back = og.hom_from_json({"compose": ["id", {"scale_int": 2}]}, og.INT, og.INT)
    assert og.hom_to_json(back) == {"scale_int": 2}


def test_hom_compose_unit_absorbs():
    lex = og.Lex(og.INT, og.RAT)
    assert (og.hom_compose(og.unit_map(og.RAT, lex), og.int_to_rat())
            == og.unit_map(og.INT, lex))
    assert (og.hom_compose(og.int_to_rat(), og.unit_map(lex, og.INT))
            == og.unit_map(lex, og.RAT))


def test_hom_compose_merges_scale_int():
    assert og.hom_compose(og.scale_int(3), og.scale_int(2)) == og.scale_int(6)


def test_hom_into_trivial_group_is_constant_unit():
    h = og.project_first(og.Lex(og.TRIVIAL, og.INT))
    assert og.hom_is_constant_unit(h)
    # so even its composite with an identity is the one constant term
    assert og.hom_compose(og.identity(og.TRIVIAL), h) is og.unit_map(h.source, og.TRIVIAL)
    assert not og.hom_is_constant_unit(og.project_first(og.Lex(og.INT, og.TRIVIAL)))


# -- the normal form of composites --------------------------------------------------

NF_GROUPS = [og.TRIVIAL, og.INT, og.RAT, og.Lex(og.INT, og.INT), og.Lex(og.INT, og.RAT),
             og.Lex(og.INT, og.TRIVIAL), og.Lex(og.TRIVIAL, og.INT),
             og.Lex(og.Lex(og.INT, og.INT), og.RAT), og.Lex(og.Lex(og.INT, og.TRIVIAL), og.INT)]
NF_SHAPE = re.compile(r"(project_first )*(scale_int )?(int_to_rat )?(inject_first )*")


def spine(group) -> int:
    """The depth of ``group``'s left factors."""
    return 1 + spine(group.left) if isinstance(group, og.Lex) else 0


def trivial(group) -> bool:
    return all(isinstance(f, og.Trivial) for f in model.factors(group))


def stages_of(h: og.Hom) -> list[og.Hom]:
    """The stages of a right-nested composite, innermost first; an identity has none."""
    stages = []
    while h.op == "compose":
        last, h = h.parts
        stages.append(last)
    return [] if h.op == "id" else [h] + stages[::-1]


def random_step(rng: random.Random, src) -> og.Hom:
    """A hom out of ``src``: one stage of the DSL, or now and then the
    composite of two, so that `hom_compose` also folds composite steps."""
    options = [og.identity(src), og.unit_map(src, rng.choice(NF_GROUPS)),
               og.inject_first(og.Lex(src, rng.choice(NF_GROUPS)))]
    if src is og.INT:
        options += [og.scale_int(rng.randint(1, 3)), og.int_to_rat()] * 2
    if isinstance(src, og.Lex):
        options += [og.project_first(src)] * 3
    h = rng.choice(options)
    return og.hom_compose(random_step(rng, h.target), h) if rng.random() < 0.2 else h


def fold(steps: list[og.Hom], source) -> og.Hom:
    h = og.identity(source)
    for step in steps:
        h = og.hom_compose(step, h)
    return h


def test_composites_are_in_normal_form_and_keep_their_values():
    rng = random.Random(34)
    for _ in range(2000):
        source = rng.choice(NF_GROUPS)
        steps = [random_step(rng, source)]
        for _ in range(rng.randint(0, 11)):
            steps.append(random_step(rng, steps[-1].target))
        h = fold(steps, source)
        assert (h.source, h.target) == (source, steps[-1].target)
        # folding two halves, the outer one a composite, gives the one term
        mid = rng.randint(0, len(steps))
        assert og.hom_compose(fold(steps[mid:], steps[mid - 1].target if mid else source),
                              fold(steps[:mid], source)) is h, steps
        for x in islice(og.g_enumerate(source), 8):
            a = model.as_fraction(source, x)
            for step in steps:
                a = model.apply(step, a)
            assert og.hom_fn(h)(x) == model.as_pair(h.target, a), (steps, x)
        stages = stages_of(h)
        assert len(stages) <= spine(h.source) + spine(h.target) + 2, steps
        if h.op == "compose":
            assert all(s.op not in ("id", "unit", "compose") and not trivial(s.source)
                       and not trivial(s.target) for s in stages), steps
            assert NF_SHAPE.fullmatch("".join(s.op + " " for s in stages)), steps
            for a, b in zip(stages, stages[1:]):
                assert not a.op == b.op == "scale_int", steps
                assert (a.op, b.op) != ("inject_first", "project_first"), steps
        assert og.hom_from_json(og.hom_to_json(h), h.source, h.target) is h


def test_lifting_across_a_long_skeleton_adds_at_most_four_pool_objects():
    b = alternating(10_000)
    before = len(og._POOL)
    terms = {transition(b, "t", v) for v in b.skeleton}
    assert len(og._POOL) - before <= 4
    assert terms == {og.identity(og.INT), og.inject_first(og.Lex(og.INT, og.INT))}


@pytest.mark.parametrize("hom", catalog_of_homs(),
                         ids=lambda h: f"{h.op}:{h.source!r}->{h.target!r}")
def test_every_dsl_hom_passes_hom_check(hom):
    report = og.hom_check(hom, samples=1000)
    assert report.ok, report.render()
    assert report.samples >= 1000


# -- subgroups ---------------------------------------------------------------------

def test_sub_member_examples():
    assert og.sub_member(og.int_multiples(2), 4)
    assert not og.sub_member(og.int_multiples(2), 3)
    assert og.sub_member(og.first_zero(og.Lex(og.INT, og.INT)), (0, 5))
    assert not og.sub_member(og.first_zero(og.Lex(og.INT, og.INT)), (1, 5))
    assert og.sub_member(og.int_in_rat(), (3, 1))
    assert not og.sub_member(og.int_in_rat(), (1, 2))


@pytest.mark.parametrize("sub", [
    og.whole(og.RAT),
    og.int_multiples(3),
    og.int_in_rat(),
    og.first_zero(og.Lex(og.INT, og.INT)),
], ids=lambda s: s.op)
def test_subgroup_closure_on_samples(sub):
    group = sub.ambient
    members = [x for x in pool(group, 200) if og.sub_member(sub, x)]
    assert og.sub_member(sub, og.g_unit(group))
    for x in members[:20]:
        assert og.sub_member(sub, og.g_inv(group, x))
        for y in members[:20]:
            assert og.sub_member(sub, og.g_op(group, x, y))


def test_subgroup_is_whole_detection():
    assert og.subgroup_is_whole(og.whole(og.INT))
    assert og.subgroup_is_whole(og.int_multiples(1))
    assert not og.subgroup_is_whole(og.int_multiples(2))
    assert not og.subgroup_is_whole(og.int_in_rat())
    assert og.subgroup_is_whole(og.first_zero(og.Lex(og.TRIVIAL, og.INT)))
    assert not og.subgroup_is_whole(og.first_zero(og.Lex(og.INT, og.INT)))


# -- text grammar ---------------------------------------------------------------------

def test_format_examples():
    assert og.format_gelem(og.INT, -7) == "-7"
    assert og.format_gelem(og.RAT, (6, 1)) == "6/1"
    assert og.format_gelem(og.TRIVIAL, og.UNIT) == "e"
    lex = og.Lex(og.INT, og.RAT)
    assert og.format_gelem(lex, (1, (2, 3))) == "(1,2/3)"
    assert og.parse_gelem(lex, "(1,2/3)") == (1, (2, 3))


def test_a_rat_value_is_a_reduced_int_pair():
    for bad in (Fraction(1, 2), (2, 4), (0, 3), (1, 0), (1, -2), (-1, -2), True, (True, 1),
                (1, True), (1.0, 2), (1, 2, 3), 1):
        with pytest.raises(TypeMismatch):
            og.g_check(og.RAT, bad)
    assert og.parse_gelem(og.RAT, "6/-4") == (-3, 2)
    assert og.format_gelem(og.RAT, og.parse_gelem(og.RAT, "6/-4")) == "-3/2"
    assert og.parse_gelem(og.RAT, "0/-5") == og.parse_gelem(og.RAT, "-0") == (0, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        og.parse_gelem(og.INT, "1/2")
    with pytest.raises(ParseError):
        og.parse_gelem(og.TRIVIAL, "0")
    with pytest.raises(ParseError):
        og.parse_gelem(og.Lex(og.INT, og.INT), "(1;2)")
    with pytest.raises(ParseError, match="zero denominator"):
        og.parse_gelem(og.RAT, "3/0")


def test_parse_rejects_literals_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no int-to-string digit limit")
    digits = "7" * (limit + 1)
    for group, text in ((og.INT, digits), (og.RAT, digits), (og.RAT, f"1/{digits}"),
                        (og.Lex(og.INT, og.RAT), f"(1,-{digits}/2)")):
        with pytest.raises(ParseError, match="digit limit"):
            og.parse_gelem(group, text)
    assert og.parse_gelem(og.INT, "7" * limit) == int("7" * limit)


@st.composite
def group_and_element(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[name]
    elems = pool(group, 64)
    return group, elems[draw(st.integers(0, len(elems) - 1))]


@given(group_and_element())
def test_element_text_round_trip(pair):
    group, x = pair
    assert og.parse_gelem(group, og.format_gelem(group, x)) == x


@given(group_and_element())
def test_group_json_round_trip(pair):
    group, _ = pair
    assert og.group_from_json(og.group_to_json(group)) == group


# the catalog's identity(Int), its cancelled pair, would repeat the id;
# test_catalog_composites_survive_a_bunch_round_trip covers it
@pytest.mark.parametrize("hom", [h for h in catalog_of_homs() if h is not og.identity(og.INT)],
                         ids=lambda h: h.op)
def test_hom_json_round_trip(hom):
    doc = og.hom_to_json(hom)
    back = og.hom_from_json(doc, hom.source, hom.target)
    assert og.hom_fn(back)(next(og.g_enumerate(hom.source))) == og.hom_fn(hom)(
        next(og.g_enumerate(hom.source)))
    assert back is hom


def test_catalog_composites_survive_a_bunch_round_trip():
    # each composable pair of the catalog steps a two-layer bunch; a printed
    # compose of project_first after inject_first leaves its middle group
    # unknown, so that pair has to print as its normal form, id
    for outer, inner in product(catalog_of_homs(), repeat=2):
        if outer.source is inner.target:
            h = og.hom_compose(outer, inner)
            b = Bunch(("t", "u"), {"t": "O", "u": "I"}, {"t": h.source, "u": h.target},
                      {"u": og.whole(h.target)}, {("t", "u"): h})
            assert parse_bunch(serialize_bunch(b)) == b, (outer, inner)
            assert og.hom_from_json(og.hom_to_json(h), h.source, h.target) is h


def test_hom_json_uninferable_compose_is_rejected():
    # project_first after inject_first leaves the middle lex factor unknown,
    # so the textual compose form cannot pin down the hom
    with pytest.raises(ParseError, match="intermediate group"):
        og.hom_from_json({"compose": ["project_first", "inject_first"]}, og.INT, og.INT)


def lex_tower(depth: int) -> og.OGroup:
    group = og.INT
    for _ in range(depth):
        group = og.Lex(group, og.INT)
    return group


def test_json_nesting_is_bounded():
    # each lex or compose level nests an object and a list
    deepest = og.MAX_NESTING // 2
    group = lex_tower(deepest)
    assert og.group_from_json(og.group_to_json(group)) == group
    with pytest.raises(ParseError, match="nests"):
        og.group_from_json(og.group_to_json(lex_tower(deepest + 1)))
    ids = "id"
    for _ in range(deepest + 1):
        ids = {"compose": [ids, "id"]}
    with pytest.raises(ParseError, match="nests"):
        og.hom_from_json(ids, og.INT, og.INT)
    assert og.hom_from_json(ids["compose"][0], og.INT, og.INT) == og.identity(og.INT)


def test_load_json_reports_every_failure_as_a_parse_error():
    assert og.load_json('{"a": [1, 2]}') == {"a": [1, 2]}
    bad = ["{", "[" * 100_000 + "]" * 100_000]
    if sys.get_int_max_str_digits():
        bad.append("9" * (sys.get_int_max_str_digits() + 1))
    for text in bad:
        with pytest.raises(ParseError):
            og.load_json(text)


def test_malformed_compose_inside_a_compose_is_a_parse_error():
    for inner in ({"compose": 5}, {"compose": ["id"]}, {"compose": ["id", "id", "id"]}):
        with pytest.raises(ParseError):
            og.hom_from_json({"compose": ["id", inner]}, og.INT, og.INT)


def test_scale_int_rejects_bool():
    # bool is an int subclass; true must not pass for the factor 1
    with pytest.raises(TypeMismatch):
        og.scale_int(True)
    with pytest.raises(ParseError, match="positive integer"):
        og.hom_from_json({"scale_int": True}, og.INT, og.INT)


def test_int_multiples_rejects_bool():
    with pytest.raises(TypeMismatch):
        og.int_multiples(True)
    with pytest.raises(ParseError, match="positive integer"):
        og.subgroup_from_json({"int_multiples": True}, og.INT)


def test_subgroup_json_round_trip():
    for sub in (og.whole(og.RAT), og.int_multiples(2), og.int_in_rat(),
                og.first_zero(og.Lex(og.INT, og.INT))):
        assert og.subgroup_from_json(og.subgroup_to_json(sub), sub.ambient) == sub


# -- hash-consing -----------------------------------------------------------------

INTERNED = (og.Trivial, og.Int, og.Rat, og.Lex, og.Subgroup, og.Hom)
LEX_IR = og.Lex(og.INT, og.RAT)
DSL_VALUES = [
    og.TRIVIAL, og.INT, og.RAT, LEX_IR, og.Lex(LEX_IR, og.Lex(og.INT, og.TRIVIAL)),
    og.whole(og.RAT), og.int_multiples(3), og.int_in_rat(), og.first_zero(LEX_IR),
    og.unit_map(LEX_IR, og.INT), og.identity(LEX_IR), og.scale_int(6),
    og.inject_first(LEX_IR), og.project_first(LEX_IR),
    og.hom_compose(og.int_to_rat(), og.scale_int(3)),
]


def test_every_dsl_class_hashes_and_compares_by_identity_in_c():
    assert {type(x) for x in DSL_VALUES} == set(INTERNED)
    for x in DSL_VALUES:
        assert type(x).__hash__ is object.__hash__
        assert type(x).__eq__ is object.__eq__
        assert type(x).__init__ is object.__init__  # a pool hit runs no __init__


def test_a_constructor_returns_the_one_object_of_its_value():
    assert og.Trivial() is og.TRIVIAL and og.Int() is og.INT and og.Rat() is og.RAT
    assert og.Lex(og.INT, og.RAT) is LEX_IR
    assert og.Lex(right=og.RAT, left=og.INT) is LEX_IR
    assert og.Lex(og.RAT, og.INT) is not LEX_IR
    two = og.Hom("scale_int", og.INT, og.INT, 2)
    assert two is og.Hom("scale_int", og.INT, og.INT, k=2) is og.scale_int(2)
    assert og.Hom("id", og.INT, og.INT) is og.Hom("id", og.INT, og.INT, 0, ()) is og.identity(og.INT)
    assert og.Subgroup("whole", og.RAT) is og.Subgroup("whole", og.RAT, k=0) is og.whole(og.RAT)
    assert og.hom_compose(og.int_to_rat(), og.scale_int(3)) is og.Hom(
        "compose", og.INT, og.RAT, parts=(og.int_to_rat(), og.scale_int(3)))
    assert dataclasses.replace(two, k=3) is og.scale_int(3)


def test_reprs_and_fields_are_those_of_the_dataclasses():
    assert repr(LEX_IR) == "Lex(left=Int(), right=Rat())"
    assert repr(og.scale_int(2)) == "Hom(op='scale_int', source=Int(), target=Int(), k=2, parts=())"
    assert repr(og.int_multiples(2)) == "Subgroup(op='int_multiples', ambient=Int(), k=2)"
    assert [f.name for f in dataclasses.fields(og.Hom)] == ["op", "source", "target", "k", "parts"]
    assert [f.name for f in dataclasses.fields(og.Subgroup)] == ["op", "ambient", "k"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        og.scale_int(2).k = 3


def test_the_pool_outlives_every_functools_cache():
    lex = og.Lex(og.INT, og.RAT)
    og.cmp_fn(lex)
    cleared = 0
    for name, module in list(sys.modules.items()):
        if name == "layerlat" or name.startswith("layerlat."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
                    cleared += 1
    assert cleared and og.cmp_fn.cache_info().currsize == 0
    assert og.Lex(og.INT, og.RAT) is lex
    assert og.Int() is og.INT


@pytest.mark.parametrize("value", DSL_VALUES, ids=repr)
def test_pickle_and_copy_return_the_pooled_object(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value


def test_bunches_parsed_from_one_text_share_their_values():
    rng = random.Random(5)
    bunches = [make() for make in fixtures.ALL.values()]
    bunches += [fixtures.random_bunch(rng) for _ in range(20)]
    for bunch in bunches:
        text = serialize_bunch(bunch)
        a, b = parse_bunch(text), parse_bunch(text)
        assert a is not b and a == b == bunch
        for u in a.skeleton:
            assert a.groups[u] is b.groups[u] is bunch.groups[u]
        for u, sub in a.subgroups.items():
            assert sub is b.subgroups[u] is bunch.subgroups[u]
        for uv, hom in a.steps.items():
            assert hom is b.steps[uv] is bunch.steps[uv]
