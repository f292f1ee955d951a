from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from layerlat import fixtures, ogroup as og
from layerlat.bunch import Bunch
from layerlat.chain import Chain, ChainElement
from layerlat.densify import densify_driver
from layerlat.errors import TrivialChain, Unbounded
from layerlat.standardize import (_midpoint, cantor_map, extend_with_products,
                                  sup_extend)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["full"]["elements"]
UNIT = og.UNIT


def test_zb_placement_replays_the_midpoint_rule(zb_chain):
    placement = cantor_map(zb_chain, 3)
    assert placement.q(ChainElement("u", UNIT, True)) == 0
    assert placement.q(ChainElement("u", UNIT, False)) == 1
    assert placement.q(ChainElement("t", 0)) == Fraction(1, 2)
    placement = cantor_map(zb_chain, 4)
    assert placement.q(ChainElement("t", 1)) == Fraction(3, 4)
    placement = cantor_map(zb_chain, 5)
    assert placement.q(ChainElement("t", -1)) == Fraction(1, 4)


def test_s3_placement(s3_chain):
    placement = cantor_map(s3_chain, 3)
    points = {x: q for x, q in placement.placed()}
    assert points == {
        ChainElement("u", UNIT, True): Fraction(0),
        ChainElement("t", UNIT, False): Fraction(1, 2),
        ChainElement("u", UNIT, False): Fraction(1),
    }


def test_placement_is_strictly_order_preserving(zb_chain):
    placement = cantor_map(zb_chain, 25)
    placed = placement.placed()
    assert len(placed) == 25
    for x, qx in placed:
        for y, qy in placed:
            assert (zb_chain.compare(x, y) == og.LT) == (qx < qy)


def test_cantor_map_requires_bounded_nontrivial(ze_chain, lz_chain):
    with pytest.raises(Unbounded):
        cantor_map(ze_chain, 5)
    with pytest.raises(Unbounded):
        cantor_map(lz_chain, 5)
    with pytest.raises(TrivialChain):
        cantor_map(Chain(fixtures.trivial_bunch()), 2)
    with pytest.raises(ValueError):
        cantor_map(Chain(fixtures.s3()), 1)


def test_prefix_stops_when_the_chain_is_exhausted(s3_chain):
    placement = cantor_map(s3_chain, 50)
    assert len(placement) == 3


def test_sup_extend_empty_supremum(zb_chain):
    placement = cantor_map(zb_chain, 8)
    for b in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert sup_extend(zb_chain, placement, Fraction(0), b) == 0


def test_sup_extend_bounded_above_by_the_true_product(zb_chain):
    placement = cantor_map(zb_chain, 10)
    one = ChainElement("t", 1)
    two = zb_chain.mul(one, one)
    work = extend_with_products(zb_chain, placement, 8)
    assert two in work
    q1 = placement.q(one)
    value = sup_extend(zb_chain, placement, q1, q1, depth=8)
    # exhaustive over placed pairs: the sup below (1,1) cannot exceed q(1*1)
    assert value <= work.q(two)
    for x, qx in work.placed():
        for y, qy in work.placed():
            if qx < q1 and qy < q1:
                z = zb_chain.mul(x, y)
                if z in work:
                    assert work.q(z) <= work.q(two)


def test_sup_extend_monotone_in_arguments_and_depth(zb_chain):
    placement = cantor_map(zb_chain, 8)
    grid = [Fraction(i, 7) for i in range(8)]
    for depth in (0, 5):
        values = {(a, b): sup_extend(zb_chain, placement, a, b, depth)
                  for a in grid for b in grid}
        for a in grid:
            for b in grid[:-1]:
                assert values[(a, b)] <= values[(a, grid[grid.index(b) + 1])]
                assert values[(b, a)] <= values[(grid[grid.index(b) + 1], a)]
    for a in grid:
        for b in grid:
            assert (sup_extend(zb_chain, placement, a, b, 0)
                    <= sup_extend(zb_chain, placement, a, b, 6))


def test_sup_extend_does_not_mutate_the_placement(zb_chain):
    placement = cantor_map(zb_chain, 6)
    before = placement.placed()
    sup_extend(zb_chain, placement, Fraction(1), Fraction(1), depth=10)
    assert placement.placed() == before


def test_negation_reverses_placed_order(zb_chain):
    # oddness transported: on placed elements the complement flips the order
    placement = cantor_map(zb_chain, 15)
    placed = [x for x, _ in placement.placed()]
    for x in placed:
        for y in placed:
            nx, ny = zb_chain.negate(x), zb_chain.negate(y)
            if nx in placement and ny in placement:
                assert (placement.q(x) < placement.q(y)) == (
                    placement.q(ny) < placement.q(nx))


def test_placement_on_densified_prefix(s3_chain):
    bunch, _ = densify_driver(s3_chain, prefix=3, rounds=3)
    chain = Chain(bunch)
    placement = cantor_map(chain, 30)
    placed = placement.placed()
    assert placed[0][1] == 0 and placed[-1][1] == 1
    for (x, qx), (y, qy) in zip(placed, placed[1:]):
        assert qx < qy and chain.compare(x, y) == og.LT


def test_csv_export_parses_back(zb_chain):
    placement = cantor_map(zb_chain, 6)
    rows = list(csv.reader(io.StringIO(placement.to_csv())))
    assert len(rows) == 6
    assert rows[0][1:] == ["0", "1"] and rows[-1][1:] == ["1", "1"]
    from layerlat.chain import parse_element
    for text, num, den in rows:
        x = parse_element(zb_chain, text)
        assert placement.q(x) == Fraction(int(num), int(den))


def test_symmetry_is_audited_but_completions_are_out_of_scope():
    # a single-layer chain over a lex group is class-J free, and insertion
    # keeps it so; no claim is made about order completions of the result,
    # which can leave the class-J-free family even when the chain does not
    lexgroup = og.Lex(og.INT, og.RAT)
    bunch = Bunch(("t",), {"t": "O"}, {"t": lexgroup}, {}, {})
    chain = Chain(bunch)
    assert bunch.kappa_j_free()
    _, trace = densify_driver(chain, prefix=6, rounds=1)
    assert all(r.inserted_class == "I" for r in trace)
    assert Chain(_driver_result(chain)).bunch.kappa_j_free()


def _driver_result(chain) -> Bunch:
    bunch, _ = densify_driver(chain, prefix=6, rounds=1)
    return bunch


# the benchmark's recorded `elements` outputs, which only its runs checked before
def test_the_zb_placement_is_the_recorded_one():
    csv_text = cantor_map(Chain(fixtures.zb()), workloads.ELEMENTS["full"]["cantor"]).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == REFERENCE["placement"]


def test_sup_extend_gives_the_recorded_values_on_every_query():
    p = workloads.ELEMENTS["full"]
    zb = Chain(fixtures.zb())
    placement = cantor_map(zb, p["sup_prefix"])
    for depth in p["depths"]:
        assert [str(sup_extend(zb, placement, a, b, depth)) for a, b in workloads.sup_queries()] \
            == REFERENCE["sup"][str(depth)]


def dyadic():
    """n / 2^k with k up to 4096, and numerators small or as long."""
    return st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-(1 << 64), 1 << 64)
                     | st.integers(-(1 << 4100), 1 << 4100), st.integers(0, 4096))


def same_fraction(a: Fraction, b: Fraction) -> bool:
    return (type(a) is type(b) is Fraction and a == b and hash(a) == hash(b)
            and (type(a._numerator), a._numerator, type(a._denominator), a._denominator)
            == (type(b._numerator), b._numerator, type(b._denominator), b._denominator))


@settings(max_examples=300)
@given(dyadic(), dyadic())
@example(Fraction(0), Fraction(1))
@example(Fraction(3, 8), Fraction(-3, 8))
@example(Fraction(-3), Fraction(5))
def test_the_dyadic_midpoint_is_the_operators(a, b):
    assert same_fraction(_midpoint(a, b), (a + b) / 2)


@settings(max_examples=300)
@given(st.fractions() | dyadic(), st.fractions())
def test_other_midpoints_are_the_operators(a, b):
    assert same_fraction(_midpoint(a, b), (a + b) / 2)
    assert same_fraction(_midpoint(b, a), (a + b) / 2)
