from __future__ import annotations

import dataclasses
import hashlib
import random
from itertools import islice

import pytest

from layerlat import bunch as bunch_module, chain as chain_module, fixtures, ogroup as og
from layerlat.bunch import (Bunch, BunchType, bunch_from_json, bunch_to_json, bunch_type,
                            parse_bunch, serialize_bunch, structural_problems, transition,
                            validate)
from layerlat.chain import Chain, ChainElement
from layerlat.densify import densify_driver
from layerlat.errors import LayerOrderError, ParseError, TypeMismatch, UnknownLayer
from guards import alternating
from model import Model


def test_s3_validates_every_clause():
    report = validate(fixtures.s3())
    assert report.ok
    clauses = {c.clause for c in report.checks}
    assert {"structure", "G1", "D1", "G3", "D2"} <= clauses


def test_validate_reads_no_lift_on_a_finite_bunch(monkeypatch):
    # every step of a finite bunch is a unit map, so every D2 triple and
    # every G3 pair is decided by a threshold or an identity
    calls = []
    lift = Chain.lift

    def counted(self, u, v):
        calls.append((u, v))
        return lift(self, u, v)

    monkeypatch.setattr(Chain, "lift", counted)
    assert validate(fixtures.finite_bunch(81)).ok
    assert calls == []


# sha256 of `validate(b, 0).render()` plus a newline, over the fixtures in
# name order and finite_bunch(1..40), recorded while G3 and D2 still built
# their lift rows and span lists at samples 0
VALIDATE_AT_NO_SAMPLES_SHA256 = "5fbd8c0838f324b07ddb49439c3587219e5ca13d7678684fb0d154012abe3849"


def test_validate_at_no_samples_prints_what_it_printed_before_skipping_the_draws():
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.finite_bunch(n) for n in range(1, 41)]
    text = "".join(validate(b, 0).render() + "\n" for b in bunches)
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATE_AT_NO_SAMPLES_SHA256


def test_validate_at_no_samples_reads_no_lift_for_its_sampled_clauses(monkeypatch):
    # lz2's doubling step is below its threshold, so G3 reads lift(t, u)
    # whenever it draws
    calls = []
    lift = Chain.lift

    def counted(self, u, v):
        calls.append((u, v))
        return lift(self, u, v)

    monkeypatch.setattr(Chain, "lift", counted)
    assert validate(fixtures.lz2(), 0).ok and calls == []
    assert validate(fixtures.lz2(), 1).ok and calls == [("t", "t"), ("t", "u")]


def test_validate_checks_the_structure_once(monkeypatch):
    # the constructor is the one place that decides structure: one call per
    # `Bunch(...)`, none in a chain or a validation over the built bunch
    calls = []

    def counted(b):
        calls.append(b)
        return structural_problems(b)

    monkeypatch.setattr(bunch_module, "structural_problems", counted)
    assert not hasattr(chain_module, "structural_problems")
    b = fixtures.lz2()
    assert len(calls) == 1 and calls[0] is b
    Chain(b)
    assert validate(b).ok
    assert len(calls) == 1
    copy = dataclasses.replace(b)
    assert len(calls) == 2 and calls[1] is copy


def test_a_build_error_of_a_structurally_sound_bunch_propagates():
    # structure lists nothing wrong here, so `validate` lets the build's
    # own TypeMismatch through, as it did when the structure was read first
    b = fixtures.lz()
    b = Bunch(b.skeleton, b.partition, b.groups, {"u": og.Subgroup("bogus", og.INT)}, b.steps)
    assert structural_problems(b) == []
    with pytest.raises(TypeMismatch, match="unknown subgroup constructor 'bogus'"):
        validate(b)


def test_validate_needs_a_sample_count_of_at_least_zero():
    with pytest.raises(ValueError, match="samples must be at least 0"):
        validate(fixtures.zb(), samples=-1)
    assert validate(fixtures.zb(), samples=0).ok


def test_trivial_group_cannot_be_class_j():
    bad = Bunch(("t", "u"), {"t": "O", "u": "J"},
                {"t": og.TRIVIAL, "u": og.TRIVIAL}, {},
                {("t", "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)})
    report = validate(bad)
    assert not report.ok
    assert any(c.clause == "G2" and not c.ok for c in report.checks)


def test_identity_step_misses_proper_subgroup():
    bad = Bunch(("t", "u"), {"t": "O", "u": "I"},
                {"t": og.INT, "u": og.INT},
                {"u": og.int_multiples(2)},
                {("t", "u"): og.identity(og.INT)})
    report = validate(bad)
    assert not report.ok
    violation = next(c for c in report.checks if c.clause == "G3" and not c.ok)
    assert violation.method == "sampled"
    assert "1" in violation.detail  # the single counterexample element


def test_g2_transition_clause():
    # a class-J layer below another layer must collapse the unit's lower cover
    good = Bunch(("t", "u"), {"t": "J", "u": "I"},
                 {"t": og.INT, "u": og.TRIVIAL},
                 {"u": og.whole(og.TRIVIAL)},
                 {("t", "u"): og.unit_map(og.INT, og.TRIVIAL)})
    assert validate(good).ok
    bad = Bunch(("t", "u"), {"t": "J", "u": "I"},
                {"t": og.INT, "u": og.INT},
                {"u": og.whole(og.INT)},
                {("t", "u"): og.identity(og.INT)})
    report = validate(bad)
    assert any(c.clause == "G2" and not c.ok and c.method == "exact"
               for c in report.checks)


def test_g1_rejects_non_least_class_o():
    bad = Bunch(("t", "u"), {"t": "O", "u": "O"},
                {"t": og.TRIVIAL, "u": og.TRIVIAL}, {},
                {("t", "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)})
    report = validate(bad)
    assert any(c.clause == "G1" and not c.ok for c in report.checks)


def test_validation_report_states_method_per_clause():
    report = validate(fixtures.lz2())
    g3 = [c for c in report.checks if c.clause == "G3"]
    assert g3 and all(c.method in ("structural", "sampled") for c in g3)
    # the doubling step into the even-multiples subgroup needs sampling
    assert any(c.method == "sampled" for c in g3)


def test_transition_identity_and_composition():
    b = fixtures.zb()
    ident = transition(b, "u", "u")
    assert og.hom_apply(ident, og.UNIT) == og.UNIT
    step = transition(b, "t", "u")
    assert og.hom_apply(step, 7) == og.UNIT

    three = Bunch(("t", "u", "v"), {"t": "O", "u": "J", "v": "J"},
                  {"t": og.INT, "u": og.INT, "v": og.INT}, {},
                  {("t", "u"): og.scale_int(2), ("u", "v"): og.scale_int(3)})
    composed = transition(three, "t", "v")
    # evaluate the two steps one after the other
    staged = og.hom_apply(og.scale_int(3), og.hom_apply(og.scale_int(2), 1))
    assert og.hom_apply(composed, 1) == staged == 6
    assert composed == og.scale_int(6)
    # composed once per bunch: a second request returns the cached hom
    assert transition(three, "t", "v") is composed


def test_transition_errors():
    b = fixtures.zb()
    with pytest.raises(LayerOrderError):
        transition(b, "u", "t")
    with pytest.raises(UnknownLayer):
        transition(b, "t", "nope")


def test_transition_functorial_on_samples():
    for mk in (fixtures.lz2, lambda: fixtures.finite_bunch(7)):
        b = mk()
        sk = b.skeleton
        for i in range(len(sk)):
            for j in range(i, len(sk)):
                for k in range(j, len(sk)):
                    direct = og.hom_fn(transition(b, sk[i], sk[k]))
                    via = (og.hom_fn(transition(b, sk[j], sk[k])),
                           og.hom_fn(transition(b, sk[i], sk[j])))
                    for x in islice(og.g_enumerate(b.groups[sk[i]]), 50):
                        assert direct(x) == via[0](via[1](x))


def assert_transitions_match_reference(b, samples=12):
    """Each composed transition against the model's fold of the steps."""
    sk, model = b.skeleton, Model(b)
    unit_from = Chain(b).thresholds()
    for i, u in enumerate(sk):
        pool = list(islice(og.g_enumerate(b.groups[u]), samples))
        for k, v in enumerate(sk[i:], i):
            got = transition(b, u, v)
            assert (got.source, got.target) == (b.groups[u], b.groups[v])
            values = [model.zeta(u, v, ChainElement(u, x)) for x in pool]
            assert list(map(og.hom_fn(got), pool)) == values, (u, v)
            # decides whether G3 is reported structural or sampled
            constant = all(y == og.g_unit(b.groups[v]) for y in values)
            assert og.hom_is_constant_unit(got) == constant, (u, v)
            # validate reads G3's structural case off the chain's threshold
            assert k == i or (k >= unit_from[i]) == constant, (u, v)


def test_transitions_match_reference_fold():
    bunches = [mk() for mk in fixtures.ALL.values()] + [fixtures.trivial_bunch()]
    bunches += [fixtures.finite_bunch(n) for n in range(1, 41)]
    bunches.append(densify_driver(Chain(fixtures.s3()), prefix=3, rounds=3)[0])
    # the normal form drops the trailing id on the trivial group; from t to x
    # and y the transition is the constant unit map by some stages, not all
    lex = og.Lex(og.TRIVIAL, og.INT)
    groups = {"t": lex, "u": og.TRIVIAL, "w": og.TRIVIAL, "x": lex, "y": og.Lex(lex, og.INT)}
    bunches.append(Bunch(tuple(groups), {u: "I" if u != "t" else "O" for u in groups}, groups,
                         {u: og.whole(g) for u, g in groups.items() if u != "t"},
                         {("t", "u"): og.project_first(lex), ("u", "w"): og.identity(og.TRIVIAL),
                          ("w", "x"): og.inject_first(lex),
                          ("x", "y"): og.inject_first(groups["y"])}))
    rng = random.Random(2312)
    bunches += [fixtures.random_bunch(rng, max_layers=8) for _ in range(200)]
    for b in bunches:
        assert_transitions_match_reference(b)


def test_deep_skeleton_transition_and_order():
    b = fixtures.finite_bunch(2001)
    top = b.skeleton[-1]
    hom = transition(b, "t", top)
    assert hom == og.unit_map(og.TRIVIAL, og.TRIVIAL)
    assert og.hom_apply(hom, og.UNIT) == og.UNIT
    chain = Chain(b)
    t = ChainElement("t", og.UNIT)
    top_element, bottom = chain.bounds()
    assert chain.compare(bottom, t) == og.LT
    assert chain.compare(t, top_element) == og.LT
    assert chain.compare(bottom, top_element) == og.LT


def test_bunch_type_examples():
    assert bunch_type(fixtures.s3()) == BunchType.ODD
    assert bunch_type(fixtures.ze()) == BunchType.EVEN_NON_IDEM_F
    even_idem = Bunch(("t",), {"t": "I"}, {"t": og.TRIVIAL},
                      {"t": og.whole(og.TRIVIAL)}, {})
    assert bunch_type(even_idem) == BunchType.EVEN_IDEM_F


@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_serialize_parse_round_trip(name):
    b = fixtures.ALL[name]()
    assert parse_bunch(serialize_bunch(b)) == b


def test_bunch_equality_skips_the_transition_cache_and_sees_every_step():
    b = fixtures.lz()
    fresh = parse_bunch(serialize_bunch(b))
    transition(b, "t", "u")
    assert b._transitions and not fresh._transitions
    assert b == fresh
    altered = dataclasses.replace(b, steps={("t", "u"): og.unit_map(og.INT, og.INT)})
    assert altered != b
    with pytest.raises(TypeError, match="unhashable"):
        hash(b)


def test_parse_missing_subgroup_is_an_error():
    doc = {
        "skeleton": ["t", "u"],
        "partition": {"t": "O", "u": "I"},
        "groups": {"t": "trivial", "u": "trivial"},
        "subgroups": {},
        "steps": {"t->u": "unit"},
    }
    with pytest.raises(ParseError, match="subgroups.u"):
        bunch_from_json(doc)


class IndexCountingList(list):
    """A skeleton list that counts its ``index`` calls, each O(L)."""

    def index(self, *args):
        self.calls += 1
        return super().index(*args)


def test_parse_reads_the_class_i_layers_in_one_pass():
    doc = bunch_to_json(alternating(3000))
    doc["skeleton"] = IndexCountingList(doc["skeleton"])
    doc["skeleton"].calls = 0
    bunch_from_json(doc)
    assert doc["skeleton"].calls == 0


@pytest.mark.parametrize("make", [*(fixtures.ALL[k] for k in sorted(fixtures.ALL)),
                                  lambda: alternating(3000)],
                         ids=[*sorted(fixtures.ALL), "alternating3000"])
def test_parse_gives_back_the_bunch_with_its_subgroups_in_skeleton_order(make):
    b = make()
    parsed = bunch_from_json(bunch_to_json(b))
    assert parsed == b and serialize_bunch(parsed) == serialize_bunch(b)
    assert list(parsed.subgroups) == [u for u in b.skeleton if b.partition[u] == "I"]


def test_parse_reports_the_first_bad_subgroup_in_skeleton_order():
    # neither the document's key order nor label order is the skeleton's
    doc = {
        "skeleton": ["t", "u2", "u1"],
        "partition": {"t": "O", "u2": "I", "u1": "I"},
        "groups": {"t": "int", "u2": "int", "u1": "int"},
        "subgroups": {"u1": "nope", "u2": "nope"},
        "steps": {"t->u2": "id", "u2->u1": "id"},
    }
    with pytest.raises(ParseError, match="^subgroups.u2: unknown subgroup encoding"):
        bunch_from_json(doc)


def test_parse_accepts_non_ascending_labels():
    # list order defines the skeleton order, not label comparison
    doc = {
        "skeleton": ["z", "a"],
        "partition": {"z": "O", "a": "I"},
        "groups": {"z": "trivial", "a": "trivial"},
        "subgroups": {"a": "whole"},
        "steps": {"z->a": "unit"},
    }
    b = bunch_from_json(doc)
    assert b.least() == "z"
    assert validate(b).ok


def test_labels_with_an_arrow_are_rejected():
    # the steps a->b -> a and a -> b->a would share the key "a->b->a"
    sk = ("a->b", "a", "b->a")
    bad = "layer label {!r} is empty or contains ':' or '->'"
    with pytest.raises(TypeMismatch) as raised:
        Bunch(sk, {"a->b": "O", "a": "I", "b->a": "I"}, {u: og.TRIVIAL for u in sk},
              {u: og.whole(og.TRIVIAL) for u in sk[1:]},
              {(u, v): og.unit_map(og.TRIVIAL, og.TRIVIAL) for u, v in zip(sk, sk[1:])})
    assert str(raised.value) == "bunch is structurally broken: " + "; ".join(
        [bad.format("a->b"), bad.format("b->a")])
    doc = {"skeleton": list(sk), "partition": {"a->b": "O", "a": "I", "b->a": "I"},
           "groups": dict.fromkeys(sk, "trivial"), "subgroups": dict.fromkeys(sk[1:], "whole"),
           "steps": {"a->b->a": "unit"}}
    with pytest.raises(ParseError, match="skeleton: bad label 'a->b'"):
        bunch_from_json(doc)


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError, match="line 1"):
        parse_bunch("{nope")
    with pytest.raises(ParseError, match="steps"):
        bunch_from_json({"skeleton": ["t"], "partition": {"t": "O"},
                         "groups": {"t": "int"}})
    with pytest.raises(ParseError, match="partition"):
        bunch_from_json({"skeleton": ["t"], "partition": {"t": "X"},
                         "groups": {"t": "int"}, "steps": {}})


# -- structure under identity equality ------------------------------------------------

def _three_layers(groups, subgroups, steps) -> Bunch:
    sk = ("t", "a", "b")
    return Bunch(sk, {"t": "O", "a": "I", "b": "I"}, dict(zip(sk, groups)),
                 dict(zip(("a", "b"), subgroups)), dict(zip(zip(sk, sk[1:]), steps)))


LII, LIR = og.Lex(og.INT, og.INT), og.Lex(og.INT, og.RAT)
BROKEN = {  # built by the test, since construction raises
    "subgroup of 'a' has wrong ambient group": lambda: _three_layers(
        (og.TRIVIAL, og.INT, og.INT), (og.whole(og.RAT), og.whole(og.INT)),
        (og.unit_map(og.TRIVIAL, og.INT), og.identity(og.INT))),
    "step 'a'->'b' has wrong source group": lambda: _three_layers(
        (og.TRIVIAL, LII, LII), (og.whole(LII), og.first_zero(LII)),
        (og.unit_map(og.TRIVIAL, LII), og.unit_map(LIR, LII))),
    "step 't'->'a' has wrong target group": lambda: _three_layers(
        (og.TRIVIAL, og.INT, og.INT), (og.whole(og.INT), og.whole(og.INT)),
        (og.unit_map(og.TRIVIAL, og.RAT), og.scale_int(2))),
}


@pytest.mark.parametrize("problem", sorted(BROKEN))
def test_structural_mismatches_are_reported_by_every_reader(problem):
    # the constructor is the one reader: no broken bunch reaches a chain or `validate`
    with pytest.raises(TypeMismatch, match=f"^bunch is structurally broken: {problem}$"):
        BROKEN[problem]()


def test_groups_built_apart_are_one_group_to_the_structure_check():
    # each layer builds its own Lex(INT, INT); the pool makes them one object
    b = _three_layers(
        (og.TRIVIAL, og.Lex(og.INT, og.INT), og.Lex(og.INT, og.INT)),
        (og.first_zero(og.Lex(og.INT, og.INT)), og.whole(og.Lex(og.INT, og.INT))),
        (og.unit_map(og.TRIVIAL, og.Lex(og.INT, og.INT)), og.identity(og.Lex(og.INT, og.INT))))
    assert structural_problems(b) == []
    assert validate(b).ok
    Chain(b)
