from __future__ import annotations

from functools import cmp_to_key
from itertools import islice

import pytest

from layerlat import densify, fixtures, ogroup as og
from layerlat.bunch import bunch_type, validate
from layerlat.chain import Chain, ChainElement
from layerlat.decompose import table_of_chain
from layerlat.densify import (TraceRecord, densify_driver, fill_gap,
                              insert_above, insert_below,
                              preserves_idempotent_symmetry)
from layerlat.embed import check_embedding
from layerlat.errors import (EvenTypeUnsupported, LayerClassError,
                             LeastLayerError, NotLess, SubgroupObstruction,
                             UnknownLayer)
from table_search import lawful_tables

UNIT = og.UNIT
LT = og.LT


def ordered_prefix(chain, count):
    return sorted(islice(chain.enumerate_elements(), count),
                  key=cmp_to_key(chain.compare))


# -- insertion operators -------------------------------------------------------

def test_insert_above_s3_gives_the_five_element_chain(s3_chain):
    receipt = insert_above(s3_chain.bunch, "u")
    assert validate(receipt.new_bunch).ok
    tbl, _ = table_of_chain(Chain(receipt.new_bunch))
    assert tbl == lawful_tables(5)[0]


def test_insert_above_the_unit_layer_is_allowed(s3_chain):
    receipt = insert_above(s3_chain.bunch, "t")
    assert validate(receipt.new_bunch).ok
    assert receipt.new_bunch.skeleton == ("t", "t+1", "u")


def test_insert_above_class_j_is_refused(ze_chain):
    with pytest.raises(LayerClassError):
        insert_above(ze_chain.bunch, "t")


def test_insert_below_least_layer_is_refused(s3_chain):
    with pytest.raises(LeastLayerError):
        insert_below(s3_chain.bunch, "t")
    with pytest.raises(UnknownLayer):
        insert_below(s3_chain.bunch, "w")


def test_insert_below_zb_sits_between_integers_and_top(zb_chain):
    receipt = insert_below(zb_chain.bunch, "u")
    assert validate(receipt.new_bunch).ok
    extended = Chain(receipt.new_bunch)
    witness = receipt.witness_maker(UNIT)
    top = ChainElement("u", UNIT, False)
    for k in range(-8, 9):
        assert extended.compare(ChainElement("t", k), witness) == LT
    assert extended.compare(witness, top) == LT
    # sampled order sanity in the extension
    pts = ordered_prefix(extended, 20)
    for a, b in zip(pts, pts[1:]):
        assert extended.compare(a, b) == LT


def test_insert_below_proper_subgroup_is_obstructed(lz2_chain):
    with pytest.raises(SubgroupObstruction):
        insert_below(lz2_chain.bunch, "u")


def test_insertion_keeps_the_bunch_type(s3_chain, zb_chain):
    for chain, v in ((s3_chain, "u"), (zb_chain, "u")):
        for op in (insert_above, insert_below):
            receipt = op(chain.bunch, v)
            assert bunch_type(receipt.new_bunch) == bunch_type(chain.bunch)


def test_cover_property_exhaustive_on_s3(s3_chain):
    # the copy of y is the upper cover (insert_above) or lower cover
    # (insert_below) of y: nothing in the finite result lies strictly between
    for op, upper in ((insert_above, True), (insert_below, False)):
        receipt = op(s3_chain.bunch, "u")
        extended = Chain(receipt.new_bunch)
        for y in (UNIT,):
            copy = receipt.witness_maker(y)
            original = ChainElement("u", y, False)
            lo, hi = (original, copy) if upper else (copy, original)
            assert extended.compare(lo, hi) == LT
            for z in extended.enumerate_elements():
                assert not (extended.compare(lo, z) == LT
                            and extended.compare(z, hi) == LT)


def test_iota_passes_embedding_clauses(s3_chain, zb_chain):
    for chain in (s3_chain, zb_chain):
        receipt = insert_below(chain.bunch, "u")
        report = check_embedding(chain, Chain(receipt.new_bunch), receipt.iota)
        assert report.ok, report.render()


# -- fill_gap --------------------------------------------------------------------

def fill_and_verify(chain, x, y):
    extended, record = fill_gap(chain, x, y)
    rebuilt = Chain(extended.bunch)
    assert validate(extended.bunch).ok
    assert (record.x, record.y) == (x, y)
    assert rebuilt.compare(x, record.witness) == LT
    assert rebuilt.compare(record.witness, y) == LT
    assert bunch_type(extended.bunch) == bunch_type(chain.bunch)
    return record


def test_fill_gap_s3_cases(s3_chain):
    bottom, t, top = ordered_prefix(s3_chain, 3)
    r = fill_and_verify(s3_chain, t, top)
    assert r.case_tag == "2a"
    assert r.witness == ChainElement("u-1", UNIT, False)
    r = fill_and_verify(s3_chain, bottom, t)
    assert r.case_tag == "2c"
    assert r.witness == ChainElement("u-1", UNIT, True)
    r = fill_and_verify(s3_chain, bottom, top)
    assert r.case_tag == "2b"


def test_fill_gap_zb_case_replay(zb_chain):
    # equal lifted parts at the top layer, undotted target above: case 2a
    r = fill_and_verify(zb_chain, ChainElement("t", 0), ChainElement("u", UNIT))
    assert r.case_tag == "2a"
    assert r.witness == ChainElement("u-1", UNIT, False)
    # strictly ordered integers in the unit layer: the left copy goes above
    r = fill_and_verify(zb_chain, ChainElement("t", 0), ChainElement("t", 1))
    assert r.case_tag == "1a"
    assert r.witness == ChainElement("t+1", 0, False)


def test_fill_gap_dotted_target_uses_the_dotted_copy(lz_chain):
    # strictly ordered parts with a dotted right endpoint: case 1c
    r = fill_and_verify(lz_chain, ChainElement("u", 2), ChainElement("u", 4, True))
    assert r.case_tag == "1c"
    assert r.witness.dotted and r.witness.g == 4


def test_fill_gap_strict_undotted_above_unit_layer(lz_chain):
    r = fill_and_verify(lz_chain, ChainElement("u", 2), ChainElement("u", 3))
    assert r.case_tag == "1b"
    assert r.witness == ChainElement("u-1", 3, False)


def test_fill_gap_strict_pair_into_unit_layer(jz_chain):
    # a gap whose right endpoint lives in the unit layer below a class-J
    # layer: outside the below-insertion reach, separated by a dotted copy
    x, y = ChainElement("u", -1), ChainElement("t", UNIT)
    assert jz_chain.compare(x, y) == LT
    # exhaustive window check that the pair is a genuine gap
    for k in range(-8, 9):
        z = ChainElement("u", k)
        assert not (jz_chain.compare(x, z) == LT and jz_chain.compare(z, y) == LT)
    r = fill_and_verify(jz_chain, x, y)
    assert r.case_tag == "1c"
    assert r.witness.dotted


def test_fill_gap_subgroup_obstruction(lz2_chain):
    with pytest.raises(SubgroupObstruction):
        fill_gap(lz2_chain, ChainElement("u", 2, True), ChainElement("u", 2))
    # the strict analogue reroutes to an above-insertion instead
    r = fill_and_verify(lz2_chain, ChainElement("u", 2), ChainElement("u", 3))
    assert r.case_tag == "1c"


def test_fill_gap_rejects_even_chains(ze_chain):
    with pytest.raises(EvenTypeUnsupported):
        fill_gap(ze_chain, ChainElement("t", 0), ChainElement("t", 1))


def test_fill_gap_rejects_unordered_pairs(s3_chain):
    t = ChainElement("t", UNIT)
    with pytest.raises(NotLess):
        fill_gap(s3_chain, t, t)
    with pytest.raises(NotLess):
        fill_gap(s3_chain, ChainElement("u", UNIT), t)


def test_fill_gap_works_on_non_gap_pairs(zb_chain):
    # (t,-1) < (t,1) has (t,0) in between; a witness must still appear
    r = fill_and_verify(zb_chain, ChainElement("t", -1), ChainElement("t", 1))
    assert r.case_tag == "1a"


# -- driver -----------------------------------------------------------------------

def test_driver_s3_one_round(s3_chain):
    bunch, trace = densify_driver(s3_chain, prefix=3, rounds=1)
    assert len(trace) == 2
    extended = Chain(bunch)
    pts = ordered_prefix(s3_chain, 3)
    for a in pts:
        for b in pts:
            if s3_chain.compare(a, b) == LT:
                assert any(extended.compare(a, w) == LT and extended.compare(w, b) == LT
                           for w in extended.enumerate_elements())


def test_driver_s3_two_rounds_separates_twice(s3_chain):
    bunch, trace = densify_driver(s3_chain, prefix=3, rounds=2)
    assert len(trace) == 6
    extended = Chain(bunch)
    pts = ordered_prefix(s3_chain, 3)
    carrier = list(extended.enumerate_elements())
    for a in pts:
        for b in pts:
            if s3_chain.compare(a, b) == LT:
                between = [w for w in carrier
                           if extended.compare(a, w) == LT and extended.compare(w, b) == LT]
                assert len(between) >= 2


def test_driver_trivial_chain_inserts_nothing():
    bunch, trace = densify_driver(Chain(fixtures.trivial_bunch()), 1, 3)
    assert trace == []


def test_driver_skips_already_separated_pairs(s3_chain):
    bunch1, trace1 = densify_driver(s3_chain, prefix=3, rounds=1)
    _, trace2 = densify_driver(s3_chain, prefix=3, rounds=2)
    assert trace2[:len(trace1)] == trace1
    second_pass = trace2[len(trace1):]
    ext1 = Chain(bunch1)
    pts = ordered_prefix(s3_chain, 3) + [r.witness for r in trace1]

    def separated(a, b):
        return any(ext1.compare(a, s) == LT and ext1.compare(s, b) == LT
                   for s in pts)

    for record in second_pass:
        assert not separated(record.x, record.y)
    unseparated = [(a, b) for a in pts for b in pts
                   if ext1.compare(a, b) == LT and not separated(a, b)]
    assert len(second_pass) == len(unseparated)


@pytest.mark.parametrize("rounds", range(1, 8))
def test_driver_builds_one_chain_per_pass(monkeypatch, rounds):
    # inserting one at a time built 2^(rounds+1) - 2 chains on s3, 62 at rounds 5
    built = []

    def counted(bunch):
        built.append(bunch)
        return Chain(bunch)

    source = Chain(fixtures.s3())
    monkeypatch.setattr(densify, "Chain", counted)
    bunch, trace = densify_driver(source, prefix=3, rounds=rounds)
    assert len(trace) == 2 ** (rounds + 1) - 2
    assert len(built) <= rounds
    assert built[-1] is bunch


@pytest.mark.parametrize("rounds", range(1, 8))
def test_driver_sorts_once_and_carries_the_order(monkeypatch, rounds):
    # re-sorting every round added O(P log P) compares per round on P points
    calls = []
    raw = Chain.compare

    def counted(self, x, y):
        calls.append((x, y))
        return raw(self, x, y)

    source = Chain(fixtures.s3())
    monkeypatch.setattr(Chain, "compare", counted)
    ordered_prefix(source, 3)
    initial_sort = len(calls)
    calls.clear()
    _, trace = densify_driver(source, prefix=3, rounds=rounds)
    # _plan's NotLess check and _pass's two witness checks per pair
    assert len(calls) <= initial_sort + 3 * len(trace)


def test_driver_trace_class_audit(s3_chain, zb_chain, lz_chain):
    for chain, prefix in ((s3_chain, 3), (zb_chain, 6), (lz_chain, 6)):
        assert chain.bunch.kappa_j_free()
        _, trace = densify_driver(chain, prefix=prefix, rounds=1)
        assert preserves_idempotent_symmetry(trace)
        assert all(r.inserted_class == "I" for r in trace)


def test_symmetry_audit_negative_control():
    fake = TraceRecord("2a", "w", "J", ChainElement("t", UNIT),
                       ChainElement("u", UNIT), ChainElement("w", UNIT))
    assert not preserves_idempotent_symmetry([fake])
