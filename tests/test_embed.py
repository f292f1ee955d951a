from __future__ import annotations

from itertools import islice

import pytest

from layerlat import (bunch as bunch_module, chain as chain_module, decompose, embed, fixtures,
                      ogroup as og)
from layerlat.bunch import Bunch
from layerlat.chain import Chain
from layerlat.decompose import recover_bunch_samples
from layerlat.densify import insert_above
from layerlat.embed import (EmbeddingSpec, check_embedding, element_map,
                            identity_embedding, parse_embedding_spec,
                            serialize_embedding_spec)
from layerlat.errors import TypeMismatch


def test_identity_into_insertion_passes_all_clauses(s3_chain):
    receipt = insert_above(s3_chain.bunch, "u")
    target = Chain(receipt.new_bunch)
    report = check_embedding(s3_chain, target, receipt.iota)
    assert report.ok, report.render()
    # finite source, so every clause is proved, not merely tested
    assert all(c.method == "proved" for c in report.checks)


def test_element_checks_are_proved_only_on_the_whole_carrier():
    b = fixtures.finite_bunch(101)
    chain = Chain(b)
    for samples, method in ((10, "tested"), (100, "tested"), (101, "proved")):
        report = check_embedding(chain, chain, identity_embedding(b), samples=samples)
        assert report.ok, report.render()
        for clause in ("element-order", "element-product"):
            assert report.first(clause).method == method, (samples, clause)


def test_element_order_is_certified_by_a_sorted_scan(monkeypatch):
    # 64 points, about 64 * log2(64) compares to sort and 63 on neighbours;
    # the scan over every pair made 64 * 63 = 4,032
    b = fixtures.finite_bunch(101)
    chain = Chain(b)
    calls = []
    compare = Chain.compare

    def counted(self, x, y):
        calls.append((x, y))
        return compare(self, x, y)

    monkeypatch.setattr(Chain, "compare", counted)
    assert check_embedding(chain, chain, identity_embedding(b), samples=64).ok
    assert len(calls) <= 64 * 6 + 64


def test_embedding_check_needs_a_sample_count_of_at_least_zero(zb_chain):
    spec = identity_embedding(zb_chain.bunch)
    with pytest.raises(ValueError, match="samples must be at least 0"):
        check_embedding(zb_chain, zb_chain, spec, samples=-1)
    assert check_embedding(zb_chain, zb_chain, spec, samples=0).ok


def test_exhaustive_pass_implies_monomorphism(s3_chain):
    receipt = insert_above(s3_chain.bunch, "u")
    target = Chain(receipt.new_bunch)
    spec = receipt.iota
    carrier = list(s3_chain.enumerate_elements())
    images = [element_map(spec, x) for x in carrier]
    assert len(set(images)) == len(carrier)
    for i, x in enumerate(carrier):
        for j, y in enumerate(carrier):
            assert s3_chain.compare(x, y) == target.compare(images[i], images[j])
            assert element_map(spec, s3_chain.mul(x, y)) == target.mul(images[i], images[j])
    ts, fs = s3_chain.constants()
    tt, ft = target.constants()
    assert element_map(spec, ts) == tt and element_map(spec, fs) == ft


def test_partition_swap_fails_e1(s3_chain):
    receipt = insert_above(s3_chain.bunch, "u")
    target = Chain(receipt.new_bunch)
    crossed = EmbeddingSpec({"t": "u", "u": "t"},
                            {"t": og.identity(og.TRIVIAL), "u": og.identity(og.TRIVIAL)})
    report = check_embedding(s3_chain, target, crossed)
    bad = {c.clause for c in report.checks if not c.ok}
    assert {"partition", "skeleton-order", "least-element"} & bad
    assert not report.ok


def test_ze_doubling_fails_unit_cover(ze_chain):
    spec = EmbeddingSpec({"t": "t"}, {"t": og.scale_int(2)})
    report = check_embedding(ze_chain, ze_chain, spec)
    cover = next(c for c in report.checks if c.clause == "unit-cover")
    assert not cover.ok  # 1 doubles to 2, but the unit cover is 1
    assert not report.ok


def test_a_class_j_source_without_a_unit_cover_fails_unit_cover():
    lex = og.Lex(og.INT, og.RAT)  # ruled by its dense right factor
    src = Chain(Bunch(("t",), {"t": "J"}, {"t": lex}, {}, {}))
    dst = Chain(Bunch(("t",), {"t": "J"}, {"t": og.INT}, {}, {}))
    report = check_embedding(src, dst, EmbeddingSpec({"t": "t"}, {"t": og.project_first(lex)}))
    cover, constants = report.first("unit-cover"), report.first("element-constants")
    assert (cover.ok, cover.detail) == (False, "the unit of 't' has no upper cover")
    assert (constants.ok, constants.detail) == (False, "class-J layer 't' has no covers")


def test_ze_identity_embeds_into_itself(ze_chain):
    spec = identity_embedding(ze_chain.bunch)
    report = check_embedding(ze_chain, ze_chain, spec)
    assert report.ok
    assert any(c.method == "tested" for c in report.checks)


def test_lz2_scaling_respects_subgroup_both_ways(lz2_chain):
    # tripling preserves the even multiples in both directions
    good = EmbeddingSpec({"t": "t", "u": "u"},
                         {"t": og.scale_int(3), "u": og.scale_int(3)})
    report = check_embedding(lz2_chain, lz2_chain, good)
    both = next(c for c in report.checks if c.clause == "subgroup-both-ways")
    assert both.ok
    # doubling maps odd non-members into the subgroup: caught both-ways
    bad = EmbeddingSpec({"t": "t", "u": "u"},
                        {"t": og.scale_int(2), "u": og.scale_int(2)})
    report = check_embedding(lz2_chain, lz2_chain, bad)
    both = next(c for c in report.checks if c.clause == "subgroup-both-ways")
    assert not both.ok


def test_ill_typed_layer_map_raises(s3_chain, zb_chain):
    spec = EmbeddingSpec({"t": "t", "u": "u"},
                         {"t": og.identity(og.TRIVIAL), "u": og.identity(og.TRIVIAL)})
    with pytest.raises(TypeMismatch):
        check_embedding(s3_chain, zb_chain, spec)


def test_spec_file_round_trip(s3_chain):
    receipt = insert_above(s3_chain.bunch, "u")
    text = serialize_embedding_spec(receipt.iota, s3_chain.bunch)
    back = parse_embedding_spec(text, s3_chain.bunch, receipt.new_bunch)
    assert back.skeleton_map == receipt.iota.skeleton_map
    report = check_embedding(s3_chain, Chain(receipt.new_bunch), back)
    assert report.ok


@pytest.mark.parametrize("make", [fixtures.lz2, lambda: fixtures.finite_bunch(9)],
                         ids=["lz2", "finite9"])
def test_embedding_and_recovery_read_the_chains_compiled_transitions(monkeypatch, make):
    # once a chain has compiled every pair u <= v, neither checker composes
    # a transition of its own: both read the chain's table
    b = make()
    chain = Chain(b)
    for i, u in enumerate(b.skeleton):
        for v in b.skeleton[i:]:
            chain._tr[u, v]
    calls = []

    def counted(*args):
        calls.append(args)
        return bunch_module.transition(*args)

    for module in (chain_module, embed, decompose):
        monkeypatch.setattr(module, "transition", counted, raising=False)
    assert check_embedding(chain, chain, identity_embedding(b)).ok
    assert recover_bunch_samples(chain).ok
    assert calls == []


def test_embedding_and_recovery_compile_no_transition_on_a_finite_chain():
    # every layer pair of a finite chain is at or past its threshold, or the
    # same layer, so `Chain.lift` decides it with no entry in `_tr`
    b = fixtures.finite_bunch(81)
    chain = Chain(b)
    assert check_embedding(chain, chain, identity_embedding(b)).ok
    assert recover_bunch_samples(chain).ok
    assert chain._tr == {}


def test_a_passing_product_clause_multiplies_each_pair_once_by_blocks(monkeypatch):
    # the blocks hold each unordered pool pair once on each chain, and no
    # pair reaches Chain.mul: the pair scan runs only when a block differs
    pairs, block_sizes = [], []
    mul, mul_block = Chain.mul, Chain.mul_block
    monkeypatch.setattr(Chain, "mul", lambda self, x, y: pairs.append((x, y)) or mul(self, x, y))
    monkeypatch.setattr(Chain, "mul_block", lambda self, x, ys: block_sizes.append(len(ys))
                        or mul_block(self, x, ys))
    tripled = EmbeddingSpec({"t": "t", "u": "u"}, {"t": og.scale_int(3), "u": og.scale_int(3)})
    for b, spec in [(fixtures.lz2(), tripled), (fixtures.lz2(), None), (fixtures.zb(), None),
                    (fixtures.lz(), None), (fixtures.finite_bunch(9), None)]:
        chain = Chain(b)
        n = sum(1 for _ in islice(chain.enumerate_elements(), 64))
        pairs.clear()
        block_sizes.clear()
        report = check_embedding(chain, chain, spec or identity_embedding(b), samples=64)
        assert report.ok and pairs == [] and sum(block_sizes) == n * (n + 1), b.skeleton


def test_two_layers_sent_to_one_fail_skeleton_order_and_the_element_clauses():
    # u1 and u2 both go to u1: the image positions tie, so skeleton-order
    # fails, and the two layers' points collapse onto one
    unit = og.unit_map(og.TRIVIAL, og.TRIVIAL)
    spec = EmbeddingSpec({"t": "t", "u1": "u1", "u2": "u1"}, {"t": unit, "u1": unit, "u2": unit})
    report = check_embedding(Chain(fixtures.finite_bunch(5)), Chain(fixtures.finite_bunch(9)), spec)
    assert report.render() == """\
FAIL skeleton-order     skeleton -- image positions are not strictly ascending [proved]
ok   least-element      t [proved]
ok   partition          t [proved]
ok   partition          u1 [proved]
ok   partition          u2 [proved]
ok   layer-group-hom    t [proved]
ok   layer-group-hom    u1 [proved]
ok   layer-group-hom    u2 [proved]
ok   transition-square  t->t [proved]
ok   transition-square  t->u1 [proved]
ok   transition-square  t->u2 [proved]
ok   transition-square  u1->u1 [proved]
ok   transition-square  u1->u2 [proved]
ok   transition-square  u2->u2 [proved]
ok   subgroup-both-ways u1 [proved]
ok   subgroup-both-ways u2 [proved]
FAIL element-order      carrier -- order not preserved at (ChainElement(layer='u1', g=e, \
dotted=False), ChainElement(layer='u2', g=e, dotted=False)) [proved]
FAIL element-product    carrier -- product not preserved at (ChainElement(layer='u1', g=e, \
dotted=True), ChainElement(layer='u2', g=e, dotted=False)) [proved]
ok   element-constants  t, f [proved]
embedding FAILED"""
