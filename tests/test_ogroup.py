from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, strategies as st

from layerlat import ogroup as og
from layerlat.errors import ParseError, TypeMismatch

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
    assert og.g_compare(og.RAT, Fraction(1, 3), Fraction(1, 3)) == og.EQ


def test_compare_type_mismatch():
    with pytest.raises(TypeMismatch):
        og.g_compare(og.INT, 2, Fraction(1, 2))
    with pytest.raises(TypeMismatch):
        og.g_op(og.RAT, Fraction(1), 1)


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
    assert og.g_inv(og.Lex(og.INT, og.RAT), (1, Fraction(1, 2))) == (-1, Fraction(-1, 2))
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
    assert og.g_cover_up(og.RAT, Fraction(1, 2)) is None
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


# -- enumeration ---------------------------------------------------------------

def test_enumerate_declared_orders():
    assert pool(og.TRIVIAL, 5) == [og.UNIT]
    assert pool(og.INT, 5) == [0, 1, -1, 2, -2]
    assert pool(og.Lex(og.INT, og.INT), 3) == [(0, 0), (1, 0), (0, 1)]
    rats = pool(og.RAT, 7)
    assert rats == [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                    Fraction(-1, 2), Fraction(2), Fraction(-2)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_enumerate_no_repeats_and_well_typed(name):
    group = GROUPS[name]
    seen = pool(group, 300)
    assert len(set(seen)) == len(seen)
    for x in seen:
        og.g_check(group, x)


def test_enumerate_rationals_reduced():
    for q in pool(og.RAT, 200):
        assert q == Fraction(q.numerator, q.denominator)
        assert q.denominator >= 1


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


def test_hom_apply_examples():
    assert og.hom_apply(og.scale_int(2), 3) == 6
    unit = og.unit_map(og.INT, og.Lex(og.INT, og.INT))
    for x in (0, 5, -3):
        assert og.hom_apply(unit, x) == (0, 0)
    composed = og.hom_compose(og.int_to_rat(), og.scale_int(3))
    # evaluate both stages independently
    staged = og.hom_apply(og.int_to_rat(), og.hom_apply(og.scale_int(3), 2))
    assert og.hom_apply(composed, 2) == staged == Fraction(6, 1)


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
    assert og.hom_compose(og.identity(og.TRIVIAL), h) == h
    assert not og.hom_is_constant_unit(og.project_first(og.Lex(og.INT, og.TRIVIAL)))


@pytest.mark.parametrize("hom", catalog_of_homs(),
                         ids=lambda h: f"{h.op}:{h.source!r}->{h.target!r}")
def test_every_dsl_hom_passes_hom_check(hom):
    report = og.hom_check(hom, samples=1000)
    assert report.ok, report.failures
    assert report.checked >= 1000


# -- subgroups ---------------------------------------------------------------------

def test_sub_member_examples():
    assert og.sub_member(og.int_multiples(2), 4)
    assert not og.sub_member(og.int_multiples(2), 3)
    assert og.sub_member(og.first_zero(og.Lex(og.INT, og.INT)), (0, 5))
    assert not og.sub_member(og.first_zero(og.Lex(og.INT, og.INT)), (1, 5))
    assert og.sub_member(og.int_in_rat(), Fraction(3))
    assert not og.sub_member(og.int_in_rat(), Fraction(1, 2))


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
    assert og.format_gelem(og.RAT, Fraction(6)) == "6/1"
    assert og.format_gelem(og.TRIVIAL, og.UNIT) == "e"
    lex = og.Lex(og.INT, og.RAT)
    assert og.format_gelem(lex, (1, Fraction(2, 3))) == "(1,2/3)"
    assert og.parse_gelem(lex, "(1,2/3)") == (1, Fraction(2, 3))


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        og.parse_gelem(og.INT, "1/2")
    with pytest.raises(ParseError):
        og.parse_gelem(og.TRIVIAL, "0")
    with pytest.raises(ParseError):
        og.parse_gelem(og.Lex(og.INT, og.INT), "(1;2)")


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


@pytest.mark.parametrize("hom", [h for h in catalog_of_homs()
                                 if h.op != "compose" or h.parts[0].op != "project_first"],
                         ids=lambda h: h.op)
def test_hom_json_round_trip(hom):
    doc = og.hom_to_json(hom)
    back = og.hom_from_json(doc, hom.source, hom.target)
    assert og.hom_fn(back)(next(og.g_enumerate(hom.source))) == og.hom_fn(hom)(
        next(og.g_enumerate(hom.source)))
    assert (back.source, back.target) == (hom.source, hom.target)


def test_hom_json_uninferable_compose_is_rejected():
    # project_first after inject_first leaves the middle lex factor unknown,
    # so the textual compose form cannot pin down the hom
    lex = og.Lex(og.INT, og.RAT)
    doc = og.hom_to_json(og.hom_compose(og.project_first(lex), og.inject_first(lex)))
    with pytest.raises(ParseError, match="intermediate group"):
        og.hom_from_json(doc, og.INT, og.INT)


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
