from __future__ import annotations

import pickle
import random
import sys
from functools import cmp_to_key
from itertools import islice

import pytest

from layerlat import cli, fixtures, ogroup as og
from layerlat.bunch import Bunch, serialize_bunch, transition
from layerlat.chain import (Chain, ChainElement, check_chain_laws,
                            format_element, parse_element)
from layerlat.decompose import table_of_chain, window_table
from layerlat.errors import (CoverMissing, LayerOrderError, ParseError, TypeMismatch,
                             UnknownLayer)
from layerlat.oracle import brute_residuum, check_flea_axioms
from guards import alternating
from model import Model
from table_search import lawful_tables
from test_kernel_references import j_then_project_bunches

UNIT = og.UNIT
LT, EQ, GT = og.LT, og.EQ, og.GT

S3_BOT = ChainElement("u", UNIT, True)
S3_T = ChainElement("t", UNIT, False)
S3_TOP = ChainElement("u", UNIT, False)


# -- zeta ---------------------------------------------------------------------

def test_zeta_drops_the_dot_and_applies_the_transition(s3_chain, zb_chain):
    assert s3_chain.zeta("u", "u", ChainElement("u", UNIT, False)) == UNIT
    assert s3_chain.zeta("u", "u", S3_BOT) == UNIT
    assert zb_chain.zeta("t", "u", ChainElement("t", 5)) == UNIT
    assert zb_chain.zeta("t", "t", ChainElement("t", 5)) == 5


def test_zeta_errors(zb_chain):
    with pytest.raises(LayerOrderError):
        zb_chain.zeta("u", "t", ChainElement("u", UNIT))
    with pytest.raises(TypeMismatch):
        zb_chain.zeta("t", "u", ChainElement("u", UNIT))


# -- order ----------------------------------------------------------------------

def test_s3_order_validated_against_the_backtracking_oracle(s3_chain):
    elems = sorted(s3_chain.enumerate_elements(), key=cmp_to_key(s3_chain.compare))
    assert elems == [S3_BOT, S3_T, S3_TOP]
    tbl, _ = table_of_chain(s3_chain)
    oracle_tbl = lawful_tables(3)[0]
    assert tbl == oracle_tbl  # unique three-element odd chain, found independently


def test_compare_clause_examples(s3_chain):
    assert s3_chain.compare(S3_BOT, S3_T) == LT       # dotted, higher layer
    assert s3_chain.compare(S3_T, S3_TOP) == LT       # lower layer, undotted target
    assert s3_chain.compare(S3_TOP, S3_TOP) == EQ


def test_lz_order_chain_and_transitivity(lz_chain):
    chain = [ChainElement("u", 3, True), ChainElement("t", 3),
             ChainElement("u", 3), ChainElement("u", 4, True)]
    for a, b in zip(chain, chain[1:]):
        assert lz_chain.compare(a, b) == LT
    for a in chain:
        for b in chain:
            for c in chain:
                if lz_chain.compare(a, b) <= 0 and lz_chain.compare(b, c) <= 0:
                    assert lz_chain.compare(a, c) <= 0


# -- product -----------------------------------------------------------------------

def test_unit_is_neutral(zb_chain, lz2_chain):
    for chain in (zb_chain, lz2_chain):
        t, _ = chain.constants()
        for x in islice(chain.enumerate_elements(), 30):
            assert chain.mul(t, x) == x


def test_s3_product_matches_oracle_table(s3_chain):
    elems = sorted(s3_chain.enumerate_elements(), key=cmp_to_key(s3_chain.compare))
    oracle_tbl = lawful_tables(3)[0]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert s3_chain.mul(x, y) == elems[oracle_tbl.product[i][j]]
    assert s3_chain.mul(S3_BOT, S3_TOP) == S3_BOT


def test_zb_product_case_one_against_window(zb_chain):
    bottom = ChainElement("u", UNIT, True)
    assert zb_chain.mul(ChainElement("t", 3), bottom) == bottom
    # re-check against the truncated window table wherever products stay inside
    tbl, elems = window_table(zb_chain, 9)
    index = {e: i for i, e in enumerate(elems)}
    for x in elems:
        for y in elems:
            z = zb_chain.mul(x, y)
            if z in index:
                assert tbl.product[index[x]][index[y]] == index[z]


def test_lz2_product_case_dispatch(lz2_chain):
    # 3 + 2 = 5 is outside the even-multiples subgroup, so the dot is lost
    assert lz2_chain.mul(ChainElement("u", 3), ChainElement("u", 2, True)) \
        == ChainElement("u", 5, False)
    # 2 + 2 stays inside and one operand is dotted, so the dot survives
    assert lz2_chain.mul(ChainElement("u", 2), ChainElement("u", 2, True)) \
        == ChainElement("u", 4, True)
    # both undotted members multiply undotted
    assert lz2_chain.mul(ChainElement("u", 2), ChainElement("u", 4)) \
        == ChainElement("u", 6, False)


# -- complement ----------------------------------------------------------------------

def test_odd_chain_fixes_the_unit(s3_chain, lz_chain):
    for chain in (s3_chain, lz_chain):
        t, f = chain.constants()
        assert chain.negate(t) == t == f


def test_ze_negation_against_brute_force_window(ze_chain):
    t, f = ze_chain.constants()
    assert f == ChainElement("t", -1)
    for k in range(-6, 7):
        # independent oracle: greatest v in the window with k + v <= -1
        best = max(v for v in range(-20, 21) if k + v <= -1)
        assert ze_chain.negate(ChainElement("t", k)) == ChainElement("t", best)


def test_negation_on_a_class_j_layer_without_covers_raises():
    # G2 rejects this bunch, but a Chain can still be built over it
    dense = Bunch(("t",), {"t": "J"}, {"t": og.RAT}, {}, {})
    with pytest.raises(CoverMissing, match="class-J layer 't' has no covers"):
        Chain(dense).negate(ChainElement("t", (1, 2)))


def test_lz_negation_dots_subgroup_members(lz_chain):
    assert lz_chain.negate(ChainElement("u", 5)) == ChainElement("u", -5, True)
    for x in islice(lz_chain.enumerate_elements(), 60):
        assert lz_chain.negate(lz_chain.negate(x)) == x


# -- residuum -------------------------------------------------------------------------

def test_residuum_unit_law(zb_chain):
    t, _ = zb_chain.constants()
    for y in islice(zb_chain.enumerate_elements(), 30):
        assert zb_chain.residuum(t, y) == y


def test_ze_residuum_brute_force(ze_chain):
    best = max(v for v in range(-20, 21) if 2 + v <= 5)
    assert ze_chain.residuum(ChainElement("t", 2), ChainElement("t", 5)) \
        == ChainElement("t", best)


def test_s3_residuum_matches_table_oracle(s3_chain):
    tbl, elems = table_of_chain(s3_chain)
    for i, x in enumerate(elems):
        for j, z in enumerate(elems):
            expected = elems[brute_residuum(tbl, i, j)]
            assert s3_chain.residuum(x, z) == expected
    assert s3_chain.residuum(S3_TOP, S3_BOT) == S3_BOT


# -- constants and bounds ---------------------------------------------------------------

def test_even_idempotent_falsum_is_the_bottom_of_the_two_element_chain():
    chain = Chain(fixtures.finite_bunch(2))
    t, f = chain.constants()
    assert f == ChainElement("t", UNIT, True)
    tbl, elems = table_of_chain(chain)
    assert elems[0] == f  # dotted unit is the least element
    oracle_tbl = lawful_tables(2)[0]
    assert tbl == oracle_tbl


def test_bounds_examples(zb_chain, lz_chain):
    top, bottom = zb_chain.bounds()
    assert top == ChainElement("u", UNIT, False)
    assert bottom == ChainElement("u", UNIT, True)
    assert lz_chain.bounds() is None
    # every sampled element of lz has something strictly above it
    for x in islice(lz_chain.enumerate_elements(), 40):
        above = ChainElement("u", x.g + 1 if x.layer == "u" else x.g, False)
        assert lz_chain.compare(x, above) == LT
    trivial = Chain(fixtures.trivial_bunch())
    assert trivial.bounds() is not None


def test_ze_is_unbounded(ze_chain):
    assert ze_chain.bounds() is None


# -- enumeration ----------------------------------------------------------------------

def test_enumerate_examples(s3_chain, zb_chain, lz_chain):
    assert list(s3_chain.enumerate_elements()) == [
        ChainElement("t", UNIT), ChainElement("u", UNIT), ChainElement("u", UNIT, True)]
    assert list(islice(zb_chain.enumerate_elements(), 4)) == [
        ChainElement("t", 0), ChainElement("u", UNIT),
        ChainElement("u", UNIT, True), ChainElement("t", 1)]
    prefix = set(islice(lz_chain.enumerate_elements(), 40))
    for k in (-2, -1, 0, 1, 2):
        assert ChainElement("u", k, False) in prefix
        assert ChainElement("u", k, True) in prefix


def test_enumerate_no_repeats(lz2_chain):
    seen = list(islice(lz2_chain.enumerate_elements(), 200))
    assert len(set(seen)) == len(seen)
    for x in seen:
        lz2_chain.check_element(x)


# -- element literals --------------------------------------------------------------------

def test_element_text_round_trip(lz2_chain):
    for x in islice(lz2_chain.enumerate_elements(), 50):
        assert parse_element(lz2_chain, format_element(lz2_chain, x)) == x


@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_built_points_are_plain_chain_elements(name):
    # mul, negate and the enumeration build points with tuple.__new__
    chain = Chain(fixtures.ALL[name]())
    pool = list(islice(chain.enumerate_elements(), 48))
    points = pool + [chain.negate(x) for x in pool]
    points += [op(x, y) for op in (chain.mul, chain.residuum) for x in pool for y in pool]
    for z in points:
        assert type(z) is ChainElement
        assert z == ChainElement(*z) and hash(z) == hash(ChainElement(*z))
    for z in set(points):
        for back in (z._replace(), z._replace(dotted=z.dotted), pickle.loads(pickle.dumps(z)),
                     parse_element(chain, format_element(chain, z))):
            assert type(back) is ChainElement and back == z


def test_element_text_errors(lz2_chain, s3_chain):
    with pytest.raises(UnknownLayer):
        parse_element(s3_chain, "w:e")
    with pytest.raises(ParseError):
        parse_element(s3_chain, "no-colon")
    with pytest.raises(TypeMismatch):
        parse_element(lz2_chain, "u:d:3")  # 3 is outside the even multiples
    with pytest.raises(TypeMismatch):
        parse_element(s3_chain, "t:d:e")  # class-O layers carry no dots


# -- laws -----------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_chain_laws_on_fixtures(name):
    report = check_chain_laws(Chain(fixtures.ALL[name]()), samples=1500, seed=3)
    assert report.ok, report.render()


def test_chain_laws_on_seeded_random_bunches():
    rng = random.Random(42)
    for _ in range(6):
        chain = Chain(fixtures.random_bunch(rng))
        report = check_chain_laws(chain, samples=800, seed=5)
        assert report.ok, report.render()


def test_compare_sorts_a_pool_into_its_own_order():
    # `check_embedding` certifies its order clause on a sorted pool's
    # neighbours, which is sound because compare is a linear order: the
    # rank of a sorted pool decides compare on every pair
    rng = random.Random(20)
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.random_bunch(rng) for _ in range(12)]
    for b in bunches:
        chain = Chain(b)
        ranked = sorted(islice(chain.enumerate_elements(), 64), key=cmp_to_key(chain.compare))
        for i, x in enumerate(ranked):
            for j, y in enumerate(ranked):
                assert chain.compare(x, y) == (i > j) - (i < j), (b.skeleton, x, y)


def test_chain_laws_need_a_sample_count_of_at_least_zero(zb_chain):
    with pytest.raises(ValueError, match="samples must be at least 0"):
        check_chain_laws(zb_chain, samples=-1)
    assert check_chain_laws(zb_chain, samples=0).samples == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_finite_carriers_pass_the_axiom_checker_exactly(n):
    tbl, _ = table_of_chain(Chain(fixtures.finite_bunch(n)))
    report = check_flea_axioms(tbl)
    assert report.ok
    assert report.first("odd-or-even").subject == ("odd" if n % 2 == 1 else "even")


LEX = og.Lex(og.INT, og.INT)


def long_bunch(shape: str) -> Bunch:
    """A skeleton whose transition from bottom to top folds more steps than
    the interpreter's recursion limit: ``alternating`` Int and Lex layers
    stepped by inject_first and project_first; ``composite`` Lex layers each
    stepped by project_first then inject_first, a pair that does not cancel;
    or ``scaled``, Int, Int and Lex layers in turn stepped by scale_int(1),
    inject_first and project_first.  `og.hom_compose` folds each of them
    into a term of at most two stages."""
    stages = sys.getrecursionlimit() + 501 | 1  # odd, so the top layer is Lex
    if shape == "alternating":
        return alternating(stages + 1)
    if shape == "scaled":
        sk = ("t",) + tuple(f"u{i}" for i in range(1, 3 * stages))
        groups = {u: LEX if i % 3 == 2 else og.INT for i, u in enumerate(sk)}
        kinds = [og.scale_int(1), og.inject_first(LEX), og.project_first(LEX)]
        steps = {(a, b): kinds[i % 3] for i, (a, b) in enumerate(zip(sk, sk[1:]))}
    else:
        sk = ("t",) + tuple(f"u{i}" for i in range(1, stages // 2 + 1))
        groups = dict.fromkeys(sk, LEX)
        loop = og.hom_compose(og.inject_first(LEX), og.project_first(LEX))
        steps = dict.fromkeys(zip(sk, sk[1:]), loop)
    return Bunch(sk, {u: "I" if i else "O" for i, u in enumerate(sk)}, groups,
                 {u: og.whole(groups[u]) for u in sk[1:]}, steps)


def long_operands(b: Bunch) -> tuple[str, str]:
    return "t:1" if b.groups["t"] == og.INT else "t:(1,7)", f"{b.skeleton[-1]}:(0,0)"


@pytest.mark.parametrize("shape", ["alternating", "composite", "scaled"])
def test_a_transition_past_the_recursion_limit_compiles_and_applies(shape):
    b = long_bunch(shape)
    chain = Chain(b)
    low, high = (parse_element(chain, s) for s in long_operands(b))
    assert chain.zeta("t", high.layer, low) == (1, 0)
    assert chain.compare(low, high) == GT and chain.compare(high, low) == LT


@pytest.mark.parametrize("shape", ["alternating", "composite", "scaled"])
def test_eval_across_a_transition_past_the_recursion_limit(shape, tmp_path, capsys):
    # at --samples 0 the validity check samples no D2 triple, whose loop is
    # cubic in the number of layers
    b = long_bunch(shape)
    path = tmp_path / "long.json"
    path.write_text(serialize_bunch(b))
    low, high = long_operands(b)
    argv = ["--samples", "0", "eval", str(path), "--op", "cmp", "--lhs", low, "--rhs", high]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "GT\n"


def stage_count(h: og.Hom) -> int:
    """The number of stages of ``h``'s term, an identity counting none."""
    return sum(map(stage_count, h.parts)) if h.op == "compose" else h.op != "id"


REVERSE_PAIR = og.Hom("compose", LEX, LEX, parts=(og.inject_first(LEX), og.project_first(LEX)))


def test_the_alternating_transition_compiles_to_at_most_two_stages():
    b = long_bunch("alternating")
    sk = b.skeleton
    assert transition(b, sk[0], sk[-1]) is og.inject_first(LEX)
    assert transition(b, sk[0], sk[-2]) is og.identity(og.INT)
    assert transition(b, sk[1], sk[-1]) is REVERSE_PAIR
    assert og.hom_fn(transition(b, sk[0], sk[-2]))(5) == 5


def test_the_reverse_pair_stays():
    # project_first then inject_first sends (a, b) to (a, 0): in the
    # composite skeleton each step is that pair, and the inject_first of one
    # step followed by the project_first of the next is what cancels
    b = long_bunch("composite")
    sk = b.skeleton
    assert b.steps[sk[0], sk[1]] is REVERSE_PAIR
    assert transition(b, sk[0], sk[-1]) is REVERSE_PAIR
    assert og.hom_fn(REVERSE_PAIR)((3, 7)) == (3, 0)
    scaled = long_bunch("scaled")
    assert transition(scaled, scaled.skeleton[0], scaled.skeleton[-1]) is \
        og.Hom("compose", og.INT, LEX, parts=(og.inject_first(LEX), og.scale_int(1)))


@pytest.mark.parametrize("shape", ["alternating", "composite", "scaled"])
def test_cancelled_transitions_give_the_uncancelled_values(shape):
    # the model folds the steps one by one and cancels nothing
    b = long_bunch(shape)
    sk, rng, model = b.skeleton, random.Random(shape), Model(b)
    pairs = [(0, len(sk) - 1)] + sorted(sorted(rng.sample(range(len(sk)), 2)) for _ in range(40))
    for i, k in pairs:
        h = transition(b, sk[i], sk[k])
        xs = list(islice(og.g_enumerate(b.groups[sk[i]]), 30))
        assert [og.hom_fn(h)(x) for x in xs] == \
            [model.zeta(sk[i], sk[k], ChainElement(sk[i], x)) for x in xs], (i, k)


def walk_bunch(rng: random.Random, n: int) -> Bunch:
    """n layers over Int and Lex(Int, Int), each step drawn from the homs
    between them: scale_int, inject_first, project_first, the reverse pair
    project_first then inject_first, and the identity."""
    sk = ("t",) + tuple(f"u{i}" for i in range(1, n))
    groups, steps = {"t": og.INT}, {}
    loop = og.hom_compose(og.inject_first(LEX), og.project_first(LEX))
    for a, b in zip(sk, sk[1:]):
        if groups[a] == og.INT:
            h = rng.choice([og.scale_int(rng.randint(1, 3)), og.inject_first(LEX),
                            og.inject_first(LEX)])
        else:
            h = rng.choice([og.project_first(LEX), og.project_first(LEX), loop,
                            og.identity(LEX)])
        groups[b], steps[a, b] = h.target, h
    return Bunch(sk, {u: "I" if i else "O" for i, u in enumerate(sk)}, groups,
                 {u: og.whole(groups[u]) for u in sk[1:]}, steps)


def test_cancelled_random_transitions_give_the_uncancelled_values():
    rng, cancelled = random.Random(29), 0
    for _ in range(60):
        b = walk_bunch(rng, 12)
        model = Model(b)
        sk = b.skeleton
        for i, u in enumerate(sk):
            xs = list(islice(og.g_enumerate(b.groups[u]), 20))
            for k, v in enumerate(sk[i + 1:], i + 1):
                h = transition(b, u, v)
                assert [og.hom_fn(h)(x) for x in xs] == \
                    [model.zeta(u, v, ChainElement(u, x)) for x in xs]
                folded = sum(stage_count(b.steps[p]) for p in zip(sk[i:], sk[i + 1:k + 1]))
                cancelled += stage_count(h) < folded
    assert cancelled > 2500


def test_every_transition_survives_a_json_round_trip():
    # from every layer of a short skeleton, and from the lowest two of a long one
    rng = random.Random(34)
    for b in mul_block_bunches() + [walk_bunch(rng, 12) for _ in range(20)]:
        sk = b.skeleton
        for i, u in enumerate(sk if len(sk) < 50 else sk[:2]):
            for v in sk[i:]:
                h = transition(b, u, v)
                assert og.hom_from_json(og.hom_to_json(h), h.source, h.target) is h, (u, v)


# -- block products ------------------------------------------------------------------------


def mul_block_bunches() -> list[Bunch]:
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.random_bunch(random.Random(k), max_layers=4) for k in range(40)]
    bunches += j_then_project_bunches()
    return bunches + [long_bunch(shape) for shape in ("alternating", "composite", "scaled")]


def test_a_block_product_is_the_list_of_its_products():
    # each point x times each layer block of the first 64 points; on a
    # same-layer or past-threshold block, wherever `mul` gives the same
    # object twice (an operand or a tabled point), `mul_block` gives it
    kept = 0
    for i, b in enumerate(mul_block_bunches()):
        chain = Chain(b)
        points = list(islice(chain.enumerate_elements(), 64))
        blocks: dict[str, list[ChainElement]] = {}
        for y in points:
            blocks.setdefault(y.layer, []).append(y)
        unit_from = chain.thresholds()
        for x in points:
            assert chain.mul_block(x, []) == []
            for v, ys in blocks.items():
                zs, ws = chain.mul_block(x, ys), [chain.mul(x, y) for y in ys]
                assert zs == ws and all(type(z) is ChainElement for z in zs), (i, x, v)
                lo, hi = sorted((b.index(x.layer), b.index(v)))
                if lo == hi or hi >= unit_from[lo]:
                    stable = [(z, w) for z, w, y in zip(zs, ws, ys) if chain.mul(x, y) is w]
                    assert all(z is w for z, w in stable), (i, x, v)
                    kept += len(stable)
    assert kept > 10_000
