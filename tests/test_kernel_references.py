"""The package's kernels and checkers against slower statements of them.

The chain's order, product, complement, zeta and enumeration are checked
against `model.Model` (tests/model.py), on equal twins of points too.  Each
checker keeps its earlier loop as a ``reference_*`` function, literal but for
the `report.Check`s it builds: the embedding check, the product extension and
``sup_extend``'s prefix-maximum table, `validate`'s D2 triple loop and report,
the recovery identities, the per-insertion densify driver, the oracle-first
decomposition and round trip, and the scanning window export.  `literal_laws`
is `check_chain_laws` with every value computed afresh.  The tests pin that
reports, values and errors are unchanged, on passing and on broken inputs,
and pin the raw-call counts no reference states.  The reports on random
bunches with `Rat` layers are pinned by digests recorded while `ogroup` ran
Fractions through their operators.
"""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import islice, product, starmap
from typing import Callable

import pytest

from layerlat import (bunch as bunch_module, chain as chain_module, cli,
                      decompose as decompose_module, fixtures, ogroup as og)
from layerlat.bunch import (Bunch, BunchType, _audit, bunch_type, serialize_bunch,
                            transition, validate)
from layerlat.chain import Chain, ChainElement, _sample_triples, check_chain_laws, format_element
from layerlat.decompose import (DecompositionResult, RoundTripWitness, decompose_table,
                                recover_bunch_samples, roundtrip_table, table_of_chain,
                                window_table)
from layerlat.densify import (InsertionReceipt, TraceRecord, densify_driver, fill_gap,
                              insert_above)
from layerlat.embed import (EmbeddingSpec, _typecheck, check_embedding, element_map,
                            identity_embedding)
from layerlat.errors import (AxiomFailure, CoverMissing, EvenTypeUnsupported,
                             InternalInvariant, LayerClassError, LeastLayerError, NotInvolutive,
                             NotLess, NotOddOrEven, RoundTripMismatch, SubgroupObstruction,
                             TypeMismatch, UnknownLayer, WindowTooSmall)
from layerlat.oracle import CayleyTable, brute_residuum, check_flea_axioms, format_table_csv
from layerlat.report import EMBED, LAWS, RECOVER, VALIDATE, Check, Report
from layerlat.standardize import (RationalPlacement, cantor_map, extend_with_products,
                                  sup_extend)
from model import Model, factors
from table_search import lawful_tables

EQ, LT, GT = og.EQ, og.LT, og.GT


# ---------------------------------------------------------------------------
# the earlier loops


def reference_check_embedding(src: Chain, dst: Chain, spec: EmbeddingSpec,
                              samples: int = 64) -> Report:
    """Run every embedding clause; the element checks are exhaustive
    ("proved") when the source carrier has at most ``samples`` points, and
    sampled ("tested") otherwise."""
    sb, db = src.bunch, dst.bunch
    _typecheck(sb, db, spec)
    report = Report([], samples, EMBED)
    smap = spec.skeleton_map
    whole = src.is_finite and sum(1 for _ in src.enumerate_elements()) <= samples
    method = "proved" if whole else "tested"

    positions = [db.index(smap[u]) for u in sb.skeleton]
    ok = all(positions[i] < positions[i + 1] for i in range(len(positions) - 1))
    report.checks.append(Check(
        "skeleton-order", "skeleton", ok, "proved",
        "" if ok else "image positions are not strictly ascending"))
    ok = smap[sb.least()] == db.least()
    report.checks.append(Check(
        "least-element", sb.least(), ok, "proved",
        "" if ok else f"least layer maps to {smap[sb.least()]!r}"))
    for u in sb.skeleton:
        ok = sb.partition[u] == db.partition[smap[u]]
        report.checks.append(Check(
            "partition", u, ok, "proved",
            "" if ok else f"class {sb.partition[u]} maps onto class {db.partition[smap[u]]}"))

    def layer_pool(u: str) -> list:
        return list(islice(og.g_enumerate(sb.groups[u]), samples))

    for u in sb.skeleton:
        h = spec.layer_maps[u]
        hr = og.hom_check(h, samples)
        fn = og.hom_fn(h)
        cmp_s = og.cmp_fn(sb.groups[u])
        cmp_d = og.cmp_fn(db.groups[smap[u]])
        strict_ok = True
        pool = layer_pool(u)
        for a in pool:
            for c in pool:
                if cmp_s(a, c) < 0 and cmp_d(fn(a), fn(c)) >= 0:
                    strict_ok = False
                    break
            if not strict_ok:
                break
        lm = "proved" if og.group_is_trivial(sb.groups[u]) else "tested"
        report.checks.append(Check(
            "layer-group-hom", u, hr.ok and strict_ok, lm,
            "" if hr.ok and strict_ok else ([c.detail for c in hr.violations()]
                                            + ["not strictly order-preserving"])[0]))

    for i, u in enumerate(sb.skeleton):
        for v in sb.skeleton[i:]:
            if db.index(smap[u]) > db.index(smap[v]):
                report.checks.append(Check(
                    "transition-square", f"{u}->{v}", False, "proved",
                    "image layers are not skeleton-ordered"))
                continue
            src_tr = og.hom_fn(transition(sb, u, v))
            dst_tr = og.hom_fn(transition(db, smap[u], smap[v]))
            fu = og.hom_fn(spec.layer_maps[u])
            fv = og.hom_fn(spec.layer_maps[v])
            bad = None
            for a in layer_pool(u):
                if fv(src_tr(a)) != dst_tr(fu(a)):
                    bad = a
                    break
            lm = "proved" if og.group_is_trivial(sb.groups[u]) else "tested"
            report.checks.append(Check(
                "transition-square", f"{u}->{v}", bad is None, lm,
                "" if bad is None else f"square does not commute at {bad!r}"))

    for u in sb.skeleton:
        if sb.partition[u] != "I":
            continue
        if db.partition[smap[u]] != "I":
            report.checks.append(Check(
                "subgroup-both-ways", u, False, "proved",
                "image layer carries no subgroup"))
            continue
        mem_s = og.member_fn(sb.subgroups[u])
        mem_d = og.member_fn(db.subgroups[smap[u]])
        fn = og.hom_fn(spec.layer_maps[u])
        bad = None
        for a in layer_pool(u):
            if mem_s(a) != mem_d(fn(a)):
                bad = a
                break
        lm = "proved" if og.group_is_trivial(sb.groups[u]) else "tested"
        report.checks.append(Check(
            "subgroup-both-ways", u, bad is None, lm,
            "" if bad is None else f"membership not reflected at {bad!r}"))

    for u in sb.skeleton:
        if sb.partition[u] != "J":
            continue
        fn = og.hom_fn(spec.layer_maps[u])
        up_s = og.g_cover_up(sb.groups[u], og.g_unit(sb.groups[u]))
        up_d = og.g_cover_up(db.groups[smap[u]], og.g_unit(db.groups[smap[u]]))
        ok = up_s is not None and fn(up_s) == up_d
        report.checks.append(Check(
            "unit-cover", u, ok, "proved",
            "" if ok else f"cover of the unit maps to {fn(up_s)!r}, expected {up_d!r}"))

    pool = list(islice(src.enumerate_elements(), samples))
    images = [element_map(spec, x) for x in pool]
    bad = None
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            if src.compare(x, y) != dst.compare(images[i], images[j]):
                bad = (x, y)
                break
        if bad:
            break
    report.checks.append(Check(
        "element-order", "carrier", bad is None, method,
        "" if bad is None else f"order not preserved at {bad}"))
    bad = None
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            if element_map(spec, src.mul(x, y)) != dst.mul(images[i], images[j]):
                bad = (x, y)
                break
        if bad:
            break
    report.checks.append(Check(
        "element-product", "carrier", bad is None, method,
        "" if bad is None else f"product not preserved at {bad}"))
    ts, fs = src.constants()
    td, fd = dst.constants()
    ok = element_map(spec, ts) == td and element_map(spec, fs) == fd
    report.checks.append(Check(
        "element-constants", "t, f", ok, "proved",
        "" if ok else "constants not preserved"))
    return report


def reference_extend_with_products(chain: Chain, placement: RationalPlacement,
                                   depth: int) -> RationalPlacement:
    """Passes over a snapshot of the placed points, each multiplying every
    pair of its snapshot again, until the budget is spent or a pass places
    nothing."""
    work = placement.copy()
    budget = depth
    progressed = True
    while budget > 0 and progressed:
        progressed = False
        snapshot = list(work._q)  # placement order: dicts keep insertion order
        for i, x in enumerate(snapshot):
            for y in snapshot[:i + 1]:
                z = chain.mul(x, y)
                if z not in work:
                    work.place(z)
                    budget -= 1
                    progressed = True
                    if budget == 0:
                        break
            if budget == 0:
                break
    return work


def reference_extended_tables(chain: Chain, placement: RationalPlacement,
                              depth: int) -> tuple[list[Fraction], list[list[Fraction]]]:
    work = reference_extend_with_products(chain, placement, depth)
    elems = work._sorted
    qs = [work._q[e] for e in elems]
    n = len(elems)
    # running prefix maximum of placed product values; 0 stands for "nothing"
    zero = Fraction(0)
    best = [[zero] * n for _ in range(n)]
    mul_q: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1):
            z = chain.mul(elems[i], elems[j])
            value = work._q.get(z)
            if value is not None:
                mul_q[(i, j)] = value
                mul_q[(j, i)] = value
    for i in range(n):
        for j in range(n):
            value = mul_q.get((i, j), zero)
            if i:
                value = max(value, best[i - 1][j])
            if j:
                value = max(value, best[i][j - 1])
            best[i][j] = value
    return qs, best


def count_below(qs: list[Fraction], a: Fraction) -> int:
    lo, hi = 0, len(qs)
    while lo < hi:
        mid = (lo + hi) // 2
        if qs[mid] < a:
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_sup_extend(tables, a: Fraction, b: Fraction) -> Fraction:
    qs, best = tables
    count_a = count_below(qs, a)
    count_b = count_below(qs, b)
    if count_a == 0 or count_b == 0:
        return Fraction(0)
    return best[count_a - 1][count_b - 1]


def reference_validate_d2(b: Bunch, samples: int = 100) -> list[Check]:
    """The D2 checks of `validate`: ς_{u→w} = ς_{v→w} ∘ ς_{u→v} on the first
    ``samples`` elements of u's group, for every triple u <= v <= w.  It
    reads `transition` from its module, so a patched one reaches it too."""
    checks = []
    n = len(b.skeleton)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                u, v, w = b.skeleton[i], b.skeleton[j], b.skeleton[k]
                direct = og.hom_fn(bunch_module.transition(b, u, w))
                first = og.hom_fn(bunch_module.transition(b, u, v))
                second = og.hom_fn(bunch_module.transition(b, v, w))
                bad = None
                for x in islice(og.g_enumerate(b.groups[u]), samples):
                    if direct(x) != second(first(x)):
                        bad = x
                        break
                checks.append(Check(
                    "D2", f"{u}->{v}->{w}", bad is None, "sampled",
                    "" if bad is None else f"composition disagrees at {og.format_gelem(b.groups[u], bad)}",
                    witness=bad))
    return checks


def reference_validate(b: Bunch, samples: int = 100) -> Report:
    """`validate`'s report built check by check in one pass, every G2 and
    sampled G3 pair through `transition` and D2 by `reference_validate_d2`.
    Its values read `transition` from its module, so a patched one reaches
    them; G3 is structural where the real transition is the constant unit."""
    checks = [Check("structure", "bunch", True, "structural")]
    sk = b.skeleton
    checks += [Check("G1", u, False, "structural", "class O is reserved for the least layer")
               for u in sk if b.partition[u] == "O" and u != sk[0]] \
        or [Check("G1", sk[0], True, "structural")]
    checks.append(Check("D1", "all layers", True, "structural"))
    for i, u in enumerate(sk):
        group = b.groups[u]
        if b.partition[u] != "J":
            continue
        if not og.is_discrete(group):
            checks.append(Check("G2", u, False, "structural",
                                f"class-J layer group {group!r} is not discrete"))
            continue
        checks.append(Check("G2", f"{u} discrete", True, "structural"))
        down = og.g_cover_down(group, og.g_unit(group))
        for w in sk[i + 1:]:
            ok = og.hom_apply(bunch_module.transition(b, u, w), down) == og.g_unit(b.groups[w])
            checks.append(Check("G2", f"{u}->{w}", ok, "exact",
                                "" if ok else "transition does not collapse the unit's lower cover"))
    for k, v in enumerate(sk):
        if b.partition[v] != "I":
            continue
        sub = b.subgroups[v]
        for u in sk[:k]:
            if og.subgroup_is_whole(sub) or og.hom_is_constant_unit(transition(b, u, v)):
                checks.append(Check("G3", f"{u}->{v}", True, "structural"))
                continue
            fn = og.hom_fn(bunch_module.transition(b, u, v))
            bad = next((x for x in islice(og.g_enumerate(b.groups[u]), samples)
                        if not og.sub_member(sub, fn(x))), None)
            checks.append(Check(
                "G3", f"{u}->{v}", bad is None, "sampled",
                "" if bad is None else f"{og.format_gelem(b.groups[u], bad)} maps outside the subgroup",
                witness=bad))
    return Report(checks + reference_validate_d2(b, samples), samples, VALIDATE)


def reference_recover_bunch_samples(chain: Chain, samples: int = 1000) -> Report:
    """Verify, on sampled elements, that the decomposition equations re-read
    the bunch off the reconstructed chain:

    a) the local unit of x is the idempotent of its layer;
    b) on class-I layers, being invertible within the layer coincides with
       being an undotted subgroup member, and with the complement-shift test;
    c) multiplying by a higher layer's idempotent realizes the transition on
       undotted elements;
    d) a dotted element is its original times the layer complement, and the
       dot projection recovers the original.

    The report has one sampled `Check` per identity, with the number of
    elements (for c, element-layer pairs) it was tried on and its first
    failure; the report's ``samples`` is the number of elements plus pairs.
    """
    if samples < 0:
        raise ValueError("samples must be at least 0")
    b = chain.bunch
    per_layer = max(1, samples // len(b.skeleton)) if samples else 0
    model = Model(b)  # the points of each layer and their transitions
    pools = {u: [x for block in islice(model.stream(u), per_layer) for x in block]
             for u in b.skeleton}
    idem = {u: ChainElement(u, og.g_unit(b.groups[u]), False) for u in b.skeleton}
    tried = dict.fromkeys("abcd", 0)
    first: dict[str, str] = {}
    fail = first.setdefault

    for u in b.skeleton:
        member = og.member_fn(b.subgroups[u]) if b.partition[u] == "I" else None
        inv = og.inv_fn(b.groups[u])
        comp_u = chain.negate(idem[u])
        tried["a"] += len(pools[u])
        tried["b"] += len(pools[u]) if member is not None else 0
        for x in pools[u]:
            if chain.residuum(x, x) != idem[u]:
                fail("a", f"local unit of {x} is not the layer idempotent")
            if member is not None:
                expected = (not x.dotted) and member(x.g)
                shifted = chain.mul(x, comp_u)
                if (chain.compare(shifted, x) < 0) != expected:
                    fail("b", f"complement-shift test wrong at {x}")
                candidate = ChainElement(u, inv(x.g), False)
                if (chain.mul(x, candidate) == idem[u]) != expected:
                    fail("b", f"invertibility wrong at {x}")
            if x.dotted:
                tried["d"] += 1
                original = ChainElement(u, x.g, False)
                if chain.mul(original, comp_u) != x:
                    fail("d", f"{x} is not its original times the complement")
                if chain.zeta(u, u, x) != x.g:
                    fail("d", f"dot projection broken at {x}")
        iu = b.index(u)
        for v in b.skeleton[iu:]:
            for x in pools[u]:
                if x.dotted:
                    continue
                tried["c"] += 1
                if chain.mul(idem[v], x) != ChainElement(v, model.zeta(u, v, x), False):
                    fail("c", f"idempotent multiplication is not the transition at {x} -> {v}")
    checks = [Check(f"({k})", subject, k not in first, "sampled", first.get(k, ""), tried[k])
              for k, subject in (("a", "local units"), ("b", "class-I invertibility"),
                                 ("c", "idempotent transitions"), ("d", "dotted elements"))]
    return Report(checks, tried["a"] + tried["c"], RECOVER)


# ---------------------------------------------------------------------------
# validate


def d2_checks(report: Report) -> list[Check]:
    return [c for c in report.checks if c.clause == "D2"]


def j_then_project_bunches() -> list[Bunch]:
    """The valid shape that `fixtures.random_bunch` never draws: t is class
    J over Lex(Int, Int) and steps by project_first, which collapses the
    unit's lower cover (0, -1) to 0, to u1, an Int layer of class I with the
    whole subgroup or of class J."""
    lex = og.Lex(og.INT, og.INT)
    return [Bunch(("t", "u1"), {"t": "J", "u1": cls}, {"t": lex, "u1": og.INT},
                  {"u1": og.whole(og.INT)} if cls == "I" else {},
                  {("t", "u1"): og.project_first(lex)}) for cls in "IJ"]


def validation_bunches() -> list[Bunch]:
    """The fixtures, finite bunches, seeded random bunches, the
    J-then-project_first bunches and a densified `lz`, whose identity steps
    fold no constant unit, so that D2 compares every triple u < v < w there."""
    rng = random.Random(2312)
    return ([f() for _, f in sorted(fixtures.ALL.items())]
            + [fixtures.finite_bunch(n) for n in range(1, 41)]
            + [fixtures.random_bunch(rng, max_layers=8) for _ in range(200)]
            + j_then_project_bunches()
            + [densify_driver(Chain(fixtures.lz()), 4, 2)[0]])


@pytest.mark.parametrize("samples", [100, 3])
def test_d2_checks_match_the_reference(samples):
    for b in validation_bunches():
        new = d2_checks(validate(b, samples=samples))
        assert new == reference_validate_d2(b, samples=samples), b.skeleton
        assert len(new) == len(b.skeleton) * (len(b.skeleton) + 1) * (len(b.skeleton) + 2) // 6


def rejected_bunches() -> list[Bunch]:
    """The G1, G2 and G3 counterexamples of the bunch and CLI tests."""
    trivial2 = {"t": og.TRIVIAL, "u": og.TRIVIAL}
    unit = {("t", "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)}
    return [
        Bunch(("t", "u"), {"t": "O", "u": "O"}, trivial2, {}, unit),
        Bunch(("t", "u"), {"t": "O", "u": "J"}, trivial2, {}, unit),
        Bunch(("t", "u"), {"t": "J", "u": "I"}, {"t": og.INT, "u": og.INT},
              {"u": og.whole(og.INT)}, {("t", "u"): og.identity(og.INT)}),
        Bunch(("t", "u"), {"t": "O", "u": "I"}, {"t": og.INT, "u": og.INT},
              {"u": og.int_multiples(2)}, {("t", "u"): og.identity(og.INT)}),
    ]


def test_a_step_of_the_wrong_groups_raises_at_construction():
    # so no such bunch reaches `_audit` or its reference
    with pytest.raises(TypeMismatch, match="^bunch is structurally broken: "
                       "step 't'->'u' has wrong source group; "
                       "step 't'->'u' has wrong target group$"):
        Bunch(("t", "u"), {"t": "O", "u": "I"}, {"t": og.TRIVIAL, "u": og.TRIVIAL},
              {"u": og.whole(og.TRIVIAL)}, {("t", "u"): og.identity(og.INT)})


def assert_audit_matches_the_reference(b: Bunch, samples: int = 100) -> Report:
    audit, report = _audit(b, samples), validate(b, samples)
    assert report == reference_validate(b, samples), b.skeleton
    assert audit.ok == report.ok and audit.report() == report, b.skeleton
    return report


@pytest.mark.parametrize("samples", [100, 3])
def test_the_audit_verdict_and_report_match_the_reference(samples):
    for b in validation_bunches():
        assert assert_audit_matches_the_reference(b, samples).ok
    for b in rejected_bunches():
        assert not assert_audit_matches_the_reference(b, samples).ok


def int_tower() -> Bunch:
    """Three Int layers joined by identity steps, every subgroup whole."""
    return Bunch(("t", "u", "w"), {"t": "O", "u": "I", "w": "I"},
                 {u: og.INT for u in "tuw"}, {u: og.whole(og.INT) for u in "uw"},
                 {("t", "u"): og.identity(og.INT), ("u", "w"): og.identity(og.INT)})


def wrong_transition(wrong: Callable[[Bunch, str, str], og.Hom | None]):
    """`transition` with the hom of some pairs replaced by ``wrong``'s."""
    def patched(b, u, v):
        hom = wrong(b, u, v)
        return transition(b, u, v) if hom is None else hom
    return patched


def patch_transition(monkeypatch, patched) -> None:
    """Replace `transition` where `Chain` compiles it, which is where
    `validate` reads it, and where the references read it."""
    for module in (chain_module, bunch_module):
        monkeypatch.setattr(module, "transition", patched)


def test_d2_failure_and_witness_match_the_reference(monkeypatch):
    # t->w doubles, so t->u->w disagrees at 1, the first sample 0 maps to 0
    patch_transition(monkeypatch, wrong_transition(
        lambda b, u, v: og.scale_int(2) if (u, v) == ("t", "w") else None))
    b = int_tower()
    report = assert_audit_matches_the_reference(b)
    new = d2_checks(report)
    assert new == reference_validate_d2(b)
    assert [(c.subject, c.detail, c.witness) for c in report.violations()] == \
        [("t->u->w", "composition disagrees at 1", 1)]


def test_validate_streams_its_samples():
    # Int enumerates without end; 5,000 samples held at once take 200 kB
    b = int_tower()
    tracemalloc.start()
    try:
        report = validate(b, samples=5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and peak < 100_000, peak


def test_d2_failures_on_collapsed_transitions_match_the_reference(monkeypatch):
    # in each bunch one transition that spans a middle layer, and does not
    # collapse, becomes the unit map; D2 then fails through the middle layer
    collapsed = {}
    cases = []
    for b in validation_bunches():  # drawn unpatched: random_bunch validates
        sk = b.skeleton
        spans = [(sk[i], sk[k]) for i in range(len(sk)) for k in range(i + 2, len(sk))
                 if not og.hom_is_constant_unit(transition(b, sk[i], sk[k]))]
        if spans:
            collapsed[id(b)] = spans[0]
            cases.append(b)
    patch_transition(monkeypatch, wrong_transition(
        lambda b, u, v: og.unit_map(b.groups[u], b.groups[v])
        if collapsed.get(id(b)) == (u, v) else None))
    assert len(cases) >= 5
    for b in cases:
        new = d2_checks(assert_audit_matches_the_reference(b))
        assert new == reference_validate_d2(b), b.skeleton
        assert not all(c.ok for c in new), b.skeleton


# ---------------------------------------------------------------------------
# laws


def law_bunches() -> list[tuple[str, object]]:
    rng = random.Random(2024)
    named = [(k, f()) for k, f in sorted(fixtures.ALL.items())]
    return named + [(f"random{i}", fixtures.random_bunch(rng, max_layers=4))
                    for i in range(100)] + [(f"j_then_project{i}", b)
                                            for i, b in enumerate(j_then_project_bunches())]


def same_laws(chain: Chain, **kw) -> Report:
    new = check_chain_laws(chain, **kw)
    ref = literal_laws(chain, **kw)
    assert new.render() == ref.render()
    # the unit, involution and falsum-shape checks count the pool
    assert [(c.clause, c.samples, c.ok, c.detail) for c in new.checks] == \
        [(c.clause, c.samples, c.ok, c.detail) for c in ref.checks]
    return new


def test_law_reports_match_the_reference_on_fixtures_and_random_bunches():
    for seed, (name, b) in enumerate(law_bunches()):
        assert same_laws(Chain(b), samples=200, seed=seed).ok, name


def test_law_reports_match_the_reference_on_a_finite_carrier():
    # the pool is the whole carrier, so the tables fill completely
    same_laws(Chain(fixtures.finite_bunch(9)), samples=2000, seed=1)


def broken_chains(patch) -> list[Chain]:
    rng = random.Random(7)
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.random_bunch(rng, max_layers=4) for _ in range(12)]
    chains = []
    for b in bunches:
        chain = Chain(b)
        name, fn = patch(chain)
        setattr(chain, name, fn)
        chains.append(chain)
    return chains


def flip_across_layers(chain):
    compare = chain.compare
    return "compare", lambda x, y: -compare(x, y) if x.layer != y.layer else compare(x, y)


def lopsided_across_layers(chain):
    compare = chain.compare
    return "compare", lambda x, y: LT if x.layer != y.layer else compare(x, y)


def blind_within_layers(chain):
    compare = chain.compare
    return "compare", lambda x, y: EQ if x.layer == y.layer else compare(x, y)


def negate_is_identity(chain):
    return "negate", lambda x: x


def negate_drops_the_dot(chain):
    negate = chain.negate
    return "negate", lambda x: negate(x)._replace(dotted=False)


@pytest.mark.parametrize("patch", [flip_across_layers, lopsided_across_layers,
                                   blind_within_layers, negate_is_identity,
                                   negate_drops_the_dot])
def test_law_reports_match_the_reference_on_broken_chains(patch):
    reports = [same_laws(chain, samples=400, seed=i)
               for i, chain in enumerate(broken_chains(patch))]
    assert not all(r.ok for r in reports)


def test_commutativity_failure_matches_the_reference_on_a_non_commutative_mul():
    def keep_the_left(chain):
        mul = chain.mul
        return "mul", lambda x, y: x if x.layer != y.layer else mul(x, y)

    failed = 0
    for i, chain in enumerate(broken_chains(keep_the_left)):
        new = check_chain_laws(chain, samples=400, seed=i)
        ref = literal_laws(chain, samples=400, seed=i)
        assert new.checks[1].clause == "commutativity"
        assert new.render().splitlines()[1] == ref.render().splitlines()[1]
        assert new.checks[1].detail == ref.checks[1].detail
        failed += not new.checks[1].ok
    assert failed


def test_law_reports_match_the_reference_on_the_fixtures_at_benchmark_samples():
    for seed, (name, make) in enumerate(sorted(fixtures.ALL.items())):
        assert same_laws(Chain(make()), samples=3000, seed=seed).ok, name


def negate_off_the_pool(chain):
    """Reverse every comparison that leaves the first 48 enumerated points,
    so the failures come from products and residua, not pool pairs."""
    compare = chain.compare
    pool = set(islice(chain.enumerate_elements(), 48))
    return "compare", lambda x, y: (compare(x, y) if x in pool and y in pool
                                    else -compare(x, y))


def test_law_reports_match_the_reference_when_compare_breaks_off_the_pool():
    reports = [same_laws(chain, samples=400, seed=i)
               for i, chain in enumerate(broken_chains(negate_off_the_pool))]
    failed = [{c.clause for c in r.checks if not c.ok} for r in reports]
    assert sum({"monotonicity", "adjointness"} <= f for f in failed) == 16
    assert all("totality" not in f for f in failed)


def test_the_triple_draw_is_the_randrange_draw():
    for n in range(1, 65):
        for seed in range(21):
            rng = random.Random(seed)
            expected = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                        for _ in range(40)]
            assert _sample_triples(n, 40, seed) == expected, (n, seed)


def test_checks_with_equal_draw_arguments_share_one_draw():
    # zb, and lz2 with the identity for its complement, so that its report
    # has details; both pools hold 48 points
    chains = [Chain(fixtures.zb()), Chain(fixtures.lz2())]
    chains[1].negate = lambda x: x
    assert [len(list(islice(c.enumerate_elements(), 48))) for c in chains] == [48, 48]
    _sample_triples.cache_clear()
    reports = [check_chain_laws(chains[0], samples=500, seed=9)]
    hits = _sample_triples.cache_info().hits
    reports.append(check_chain_laws(chains[1], samples=500, seed=9))
    assert _sample_triples.cache_info().hits == hits + 1
    rng = random.Random(9)
    assert _sample_triples(48, 500, 9) == [
        (rng.randrange(48), rng.randrange(48), rng.randrange(48)) for _ in range(500)]
    assert not reports[1].ok
    for chain, report in zip(chains, reports):
        _sample_triples.cache_clear()
        fresh = check_chain_laws(chain, samples=500, seed=9)
        assert fresh.render() == report.render()
        assert verdicts(fresh) == verdicts(report)


# raw `mul` calls made on these chains by the pool-table law checker, which
# decided each pool pair once but compared products afresh for every triple
EARLIER_MUL_CALLS = {"finite_bunch(9)": 144, "zb": 4503, "lz2": 5061}


@pytest.mark.parametrize("name, make, samples", [
    ("finite_bunch(9)", lambda: fixtures.finite_bunch(9), 2000),
    ("zb", fixtures.zb, 3000),
    ("lz2", fixtures.lz2, 3000),
])
def test_each_comparison_is_decided_once(name, make, samples):
    chain = Chain(make())
    compare, mul = chain.compare, chain.mul
    pairs, muls = [], []

    def counted_compare(x, y):
        pairs.append((x, y))
        return compare(x, y)

    def counted_mul(x, y):
        muls.append((x, y))
        return mul(x, y)

    chain.compare, chain.mul = counted_compare, counted_mul
    assert check_chain_laws(chain, samples=samples, seed=1).ok
    assert len(pairs) == len(set(pairs))
    if name == "finite_bunch(9)":
        assert len(pairs) <= 81
    assert len(muls) <= EARLIER_MUL_CALLS[name]


def test_the_law_tables_are_freed_on_return():
    # a table whose fill function refers back to it would keep every
    # interned element alive until the cycle collector runs
    chain = Chain(fixtures.lz2())
    gc.collect()
    gc.disable()
    try:
        check_chain_laws(chain, samples=3000)
        assert gc.collect() == 0
    finally:
        gc.enable()


def literal_laws(chain: Chain, samples: int = 10_000, seed: int = 0) -> Report:
    """`check_chain_laws` with every value computed afresh by the chain's own
    calls, in the orientation the law writes it, with no memo at all, on
    triples drawn by `random.Random(seed).randrange`."""
    pool = list(islice(chain.enumerate_elements(), 48))
    n, rng = len(pool), random.Random(seed)
    triples = [(pool[rng.randrange(n)], pool[rng.randrange(n)], pool[rng.randrange(n)])
               for _ in range(samples)]
    t, f = chain.constants()
    cmp, mul, neg = chain.compare, chain.mul, chain.negate

    def first(details) -> str:
        return next((d for d in details if d), "")

    def totality(x, y, z) -> str:
        if cmp(x, y) != -cmp(y, x):
            return f"asymmetry broken at {x}, {y}"
        if (x == y) != (cmp(x, y) == EQ):
            return f"equality vs EQ mismatch at {x}, {y}"
        if cmp(x, y) <= 0 and cmp(y, z) <= 0 and cmp(x, z) > 0:
            return f"transitivity broken at {x}, {y}, {z}"
        return ""

    if chain.type() == BunchType.ODD:
        falsum = "" if f == t else "odd chain must fix the unit under complement"
    elif cmp(f, t) != LT:
        falsum = "even chain needs falsum strictly below unit"
    else:
        falsum = first(f"{x} lies strictly between falsum and unit" for x in pool
                       if cmp(f, x) == LT and cmp(x, t) == LT)
    details = [
        ("totality", samples, first(totality(x, y, z) for x, y, z in triples)),
        ("commutativity", samples, first(f"{x} * {y}" for x, y, _ in triples
                                         if mul(x, y) != mul(y, x))),
        ("associativity", samples, first(f"{x}, {y}, {z}" for x, y, z in triples
                                         if mul(mul(x, y), z) != mul(x, mul(y, z)))),
        ("unit", n, first(f"{x}" for x in pool if mul(t, x) != x or mul(x, t) != x)),
        ("monotonicity", samples, first(f"{x} <= {y} but products reversed with {z}"
                                        for x, y, z in triples
                                        if cmp(x, y) <= 0 and cmp(mul(x, z), mul(y, z)) > 0)),
        ("adjointness", samples, first(
            f"x={x}, v={v}, z={z}" for x, v, z in triples
            if (cmp(mul(x, v), z) <= 0) != (cmp(v, neg(mul(x, neg(z)))) <= 0))),
        ("involution", n, first(f"{x}" for x in pool if neg(neg(x)) != x)),
        ("falsum-shape", n, falsum),
    ]
    return Report([Check(law, f"{checked} samples", not detail, "sampled", detail, checked)
                   for law, checked, detail in details], samples, LAWS)


def verdicts(report: Report) -> list[tuple[str, bool, str]]:
    return [(c.clause, c.ok, c.detail) for c in report.checks]


def test_the_unit_is_pool_point_zero():
    # check_chain_laws reads t * x and x * t from row and column 0
    for name, b in law_bunches():
        chain = Chain(b)
        assert next(chain.enumerate_elements()) == chain.constants()[0], name


def right_unit_lost(chain):
    """x * t gives t, not x, for every x other than t; t * x stays right."""
    mul = chain.mul
    t, _ = chain.constants()
    return "mul", lambda x, y: y if y == t and x != t else mul(x, y)


def test_unit_failure_matches_the_reference_when_only_x_times_t_breaks():
    for i, chain in enumerate(broken_chains(right_unit_lost)):
        new = check_chain_laws(chain, samples=400, seed=i).first("unit")
        ref = literal_laws(chain, samples=400, seed=i).first("unit")
        assert (new.ok, new.detail, new.samples) == (ref.ok, ref.detail, ref.samples)
        assert new.ok == (new.samples == 1)  # only a one-point pool passes


def broken_below_the_diagonal(wrong):
    """A patch whose pool[i] * pool[j] is wrong(x, y, x * y, negate) when
    i > j, among the first 48 enumerated points; every other product is
    right."""
    def patch(chain):
        mul, negate = chain.mul, chain.negate
        index = {x: i for i, x in enumerate(islice(chain.enumerate_elements(), 48))}

        def broken(x, y):
            i, j = index.get(x), index.get(y)
            if i is not None and j is not None and i > j:
                return wrong(x, y, mul(x, y), negate)
            return mul(x, y)
        return "mul", broken
    return patch


BELOW_THE_DIAGONAL = {
    "left-factor": lambda x, y, p, negate: x,
    "right-factor": lambda x, y, p, negate: y,
    "complement": lambda x, y, p, negate: negate(p),
    "dot-dropped": lambda x, y, p, negate: p._replace(dotted=False),
}


def test_law_reports_read_each_pool_pair_in_its_own_orientation():
    failed = set()
    patch = broken_below_the_diagonal(BELOW_THE_DIAGONAL["complement"])
    for i, chain in enumerate(broken_chains(patch)):
        new = verdicts(same_laws(chain, samples=400, seed=i))
        failed |= {clause for clause, ok, _ in new if not ok}
    assert failed == {"commutativity", "associativity", "unit", "monotonicity",
                      "adjointness"}


@pytest.mark.parametrize("name", sorted(BELOW_THE_DIAGONAL))
def test_law_reports_match_the_reference_on_a_non_commutative_mul(name):
    # the reference computes each product in its own orientation, so every
    # law pins the checker here
    patch = broken_below_the_diagonal(BELOW_THE_DIAGONAL[name])
    reports = [same_laws(chain, samples=400, seed=i)
               for i, chain in enumerate(broken_chains(patch))]
    assert not all(r.ok for r in reports)


def count_calls(chain: Chain) -> dict[str, list[tuple]]:
    """Wrap the chain's compare, mul and negate to record every call."""
    calls: dict[str, list[tuple]] = {}
    for name in ("compare", "mul", "negate"):
        raw, seen = getattr(chain, name), calls.setdefault(name, [])

        def counted(*args, raw=raw, seen=seen):
            seen.append(args)
            return raw(*args)
        setattr(chain, name, counted)
    return calls


# raw `mul` calls of the ordered pool table on these chains, and `compare`
# calls of the interned-id checker before it, which multiplied 144, 4,503
# and 5,061 times, repeating 63, 1,253 and 1,255 ordered pairs
ORDERED_POOL_MUL_CALLS = {"finite_bunch(9)": 81, "zb": 3255, "lz2": 3813}
EARLIER_COMPARE_CALLS = {"finite_bunch(9)": 81, "zb": 3794, "lz2": 4637}


@pytest.mark.parametrize("name, make, samples", [
    ("finite_bunch(9)", lambda: fixtures.finite_bunch(9), 2000),
    ("zb", fixtures.zb, 3000),
    ("lz2", fixtures.lz2, 3000),
])
def test_each_ordered_pair_reaches_mul_at_most_once(name, make, samples):
    chain = Chain(make())
    calls = count_calls(chain)
    assert check_chain_laws(chain, samples=samples, seed=1).ok
    assert len(calls["mul"]) == len(set(calls["mul"]))
    assert len(calls["mul"]) <= ORDERED_POOL_MUL_CALLS[name]
    assert len(calls["compare"]) <= EARLIER_COMPARE_CALLS[name]


# (compare, negate) calls of the earlier checker at samples=0; filling both
# pool tables eagerly would make 48 * 48 compare and mul calls instead
EARLIER_CALLS_AT_NO_SAMPLES = {"jz": (0, 50), "lz": (0, 52), "lz2": (0, 50),
                               "s3": (0, 4), "zb": (0, 50), "ze": (73, 51)}


@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_no_samples_cost_only_the_unit_law_products(name):
    chain = Chain(fixtures.ALL[name]())
    n = len(list(islice(chain.enumerate_elements(), 48)))
    calls = count_calls(chain)
    assert check_chain_laws(chain, samples=0).ok
    assert len(calls["mul"]) <= 2 * n
    compares, negates = EARLIER_CALLS_AT_NO_SAMPLES[name]
    assert len(calls["compare"]) <= compares and len(calls["negate"]) <= negates


# exact (compare, mul, negate) calls of check_chain_laws, recorded on the
# id-keyed memo tables before the pool pairs moved into flat lists: a table
# filled eagerly, or a pair decided twice, moves a count
EXACT_LAW_CALLS = {"finite_bunch(9)": (81, 81, 10), "zb": (3794, 3255, 94),
                   "lz2": (4637, 3813, 126)}
EXACT_CALLS_AT_NO_SAMPLES = {"jz": (0, 95, 50), "lz": (0, 95, 52), "lz2": (0, 95, 50),
                             "s3": (0, 5, 4), "zb": (0, 95, 50), "ze": (73, 95, 51)}


def raw_call_counts(chain: Chain, samples: int, seed: int) -> tuple[int, int, int]:
    calls = count_calls(chain)
    assert check_chain_laws(chain, samples=samples, seed=seed).ok
    return len(calls["compare"]), len(calls["mul"]), len(calls["negate"])


@pytest.mark.parametrize("name, make, samples", [
    ("finite_bunch(9)", lambda: fixtures.finite_bunch(9), 2000),
    ("zb", fixtures.zb, 3000),
    ("lz2", fixtures.lz2, 3000),
])
def test_the_law_checker_makes_exactly_the_recorded_raw_calls(name, make, samples):
    assert raw_call_counts(Chain(make()), samples, 1) == EXACT_LAW_CALLS[name]


@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_no_samples_make_exactly_the_recorded_raw_calls(name):
    chain = Chain(fixtures.ALL[name]())
    assert raw_call_counts(chain, 0, 1) == EXACT_CALLS_AT_NO_SAMPLES[name]


def report_sha256(report: Report) -> str:
    return hashlib.sha256(report.render().encode()).hexdigest()


# Every random_bunch(random.Random(k), max_layers=4) with k < 60 that has a Rat
# layer group, directly or as a Lex factor, mapped to the sha256 of the
# rendered identity check_embedding at 64 and at 400 samples and of
# recover_bunch_samples, and to the exact (compare, mul, negate) calls of
# check_chain_laws(chain, 3000, seed=1), whose report renders alike on all of
# them.  Recorded while Rat arithmetic ran through the Fraction operators.
RAT_LAW_REPORT_SHA256 = "385cb3718323d5d991a0e01cabb182ee3ddfc655eb0c634c4d8e4accb2337707"
RAT_BUNCH_REPORTS = {
    0: ("8c09a3739f39859a67ffb1bc821427802389adb862bca1cc7cd9d8269a4764f0",
        "8c09a3739f39859a67ffb1bc821427802389adb862bca1cc7cd9d8269a4764f0",
        "8310df4433a4d95d9ec3519f9dfe4bd1e84e74cd4d465f1a3f2cfcd35981d10f", (3297, 3307, 121)),
    3: ("60710f0aeb1c3fc039b3742fc861384893720c4f09ce83319ed6eadc7c227135",
        "60710f0aeb1c3fc039b3742fc861384893720c4f09ce83319ed6eadc7c227135",
        "7f18af97cdaa5e89f4be136afa7e5b5dfdae4ece017d876e7d7559c852c96f92", (4199, 3812, 165)),
    5: ("b9eeda35ae1af4affcb0250739a043aa9d1c6cb1c354c6f72cc0b8f7307f4cbe",
        "b9eeda35ae1af4affcb0250739a043aa9d1c6cb1c354c6f72cc0b8f7307f4cbe",
        "729c46e3eed52760d1f4d861cba6c251045bf8eb380765b654153b5e9d46e367", (3704, 3423, 134)),
    9: ("913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "d7127e746fc4b68f2a61a23296fea1b426f04b83f6d49f6eae347959b1e5ab26", (3244, 3080, 116)),
    11: ("913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "8310df4433a4d95d9ec3519f9dfe4bd1e84e74cd4d465f1a3f2cfcd35981d10f", (3261, 3281, 128)),
    12: ("a8840074ecc7447bb380cc6dd44879a269df0eb32d3c45bf01143b2a4e2ef597",
        "a8840074ecc7447bb380cc6dd44879a269df0eb32d3c45bf01143b2a4e2ef597",
        "68e5893b74592da3e4fdec3b598e6cb0a9b3bdbac08e6823db50a0f8a8c690f8", (3414, 3614, 147)),
    14: ("7157ec2a60c893176632c5bead9c711dde57a8535f538a059f4a42db5076f14a",
        "7157ec2a60c893176632c5bead9c711dde57a8535f538a059f4a42db5076f14a",
        "2076fca30ced9adf993b2c603add1b88bb6180bca07cec2751f42427d01f913c", (5657, 4625, 199)),
    15: ("a48e84f18e1eca2b3fc680a6f5668dc6445f46772f0464de09239f26418d9c3c",
        "a48e84f18e1eca2b3fc680a6f5668dc6445f46772f0464de09239f26418d9c3c",
        "7669bcfe747096da4c5e693e8ba9be5bdb0433fede49a6c1605da464fc2f5c23", (3793, 3345, 140)),
    20: ("c4a7de1a25438283efa8a80f4f6a92bf59766ec08218f6f6cf24f11439927e1c",
        "c4a7de1a25438283efa8a80f4f6a92bf59766ec08218f6f6cf24f11439927e1c",
        "2076fca30ced9adf993b2c603add1b88bb6180bca07cec2751f42427d01f913c", (4158, 3697, 155)),
    23: ("cdd75f7474d08466f66f9f233b09b9413ca08e6cee7f8105becc699b42fd3212",
        "cdd75f7474d08466f66f9f233b09b9413ca08e6cee7f8105becc699b42fd3212",
        "3a01cda2510b31ba02619969fb228dda0d7004eab64c696e2e547bc8b55719fd", (4061, 3672, 165)),
    26: ("d70edebcbaee8520c349a656ad2345083556f06d72b58f444cdde2a8fc65c1bd",
        "d70edebcbaee8520c349a656ad2345083556f06d72b58f444cdde2a8fc65c1bd",
        "f5e4e67c80bcc6b1cc9ebd9664f5f999437c85b2f29c54b049fed04c49f7310c", (3997, 3499, 146)),
    27: ("913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "913ab794b05c1213a69e536532a41fa42d71aa4d336be9dd1bc2d868aa817cc1",
        "cc20120999ec3d2ca8b9e851009aab078e34ea54be67d5f34c02b7212dca4610", (3261, 3000, 108)),
    34: ("f1b7748e136570a1a4efd805ac38ae15c390f027340484305e69e56ffbcfe84b",
        "f1b7748e136570a1a4efd805ac38ae15c390f027340484305e69e56ffbcfe84b",
        "b09d1e6b6ca319e27c255aa575c02cbccbbd45dc43ff166b2eb74879560f44c9", (3684, 3308, 130)),
    35: ("c9be0b9e3a41fd6ba5726aee4c623e51a5a4680b019821bc09f0b14235786371",
        "c9be0b9e3a41fd6ba5726aee4c623e51a5a4680b019821bc09f0b14235786371",
        "729c46e3eed52760d1f4d861cba6c251045bf8eb380765b654153b5e9d46e367", (3695, 3483, 152)),
    37: ("7157ec2a60c893176632c5bead9c711dde57a8535f538a059f4a42db5076f14a",
        "7157ec2a60c893176632c5bead9c711dde57a8535f538a059f4a42db5076f14a",
        "2076fca30ced9adf993b2c603add1b88bb6180bca07cec2751f42427d01f913c", (5657, 4625, 199)),
    38: ("18ac3630d8514c49d022cecaab2c0c63791508d347691a9ed66db60c25cbf187",
        "18ac3630d8514c49d022cecaab2c0c63791508d347691a9ed66db60c25cbf187",
        "68e5893b74592da3e4fdec3b598e6cb0a9b3bdbac08e6823db50a0f8a8c690f8", (3159, 3122, 119)),
    40: ("7b696c333baad18fd978cf4a6d15166300d51718ffe6ed46043c49db713cd4d8",
        "7b696c333baad18fd978cf4a6d15166300d51718ffe6ed46043c49db713cd4d8",
        "12e066555e6aa6be5d691bd9ffde9bde84af1b9bf37de3eb5cf959d9b3013252", (3279, 3178, 123)),
    41: ("193f531c9a65bb95c014f110674660189bd453745226269b387650669cf628df",
        "193f531c9a65bb95c014f110674660189bd453745226269b387650669cf628df",
        "156930af914364bf22e520c5a90baad863220a5e45e44bd193f7b06d19410c6a", (3441, 3496, 132)),
    42: ("774e3d469a3416afcbc8842cf2cccb20833e7c4d93a2cfcc1b36e25c0bc6e719",
        "774e3d469a3416afcbc8842cf2cccb20833e7c4d93a2cfcc1b36e25c0bc6e719",
        "f632f318c271d82e3c508b6cd0b49b73c9d8cd9bd8c848131ae0d22d7e589bcf", (7631, 6191, 532)),
    44: ("5c9e184eeef7b34a1b75c4e8ef50e16434494f4bcce4141ffc66fec4f8c3012c",
        "5c9e184eeef7b34a1b75c4e8ef50e16434494f4bcce4141ffc66fec4f8c3012c",
        "77d7c26e07abbf2b3ef008b4a43b3cc55cd02b92fde138644d0459e967355b18", (3224, 3114, 125)),
    45: ("e2e1e61e536f31752d3d8da2a44dddfb258eef0d82ce5b9f03c2d0b380af7c88",
        "e2e1e61e536f31752d3d8da2a44dddfb258eef0d82ce5b9f03c2d0b380af7c88",
        "b09227c7077dcb6c16ddba9d8667e73866b5d4654849ede2bb17121980d55c72", (4066, 3720, 150)),
    47: ("fff781ea52087c8708e05db9e54e0aae8a788c43d52b6b5bbd159525f2c5c02f",
        "fff781ea52087c8708e05db9e54e0aae8a788c43d52b6b5bbd159525f2c5c02f",
        "7d27707f52e5a7cb0be5baf96f514b526d451ed317991c25c5715ffc2a00e63d", (3449, 3181, 144)),
    48: ("957be561a99a36f872f7c362651144e9ca5a8e5264327127d56a22190cbaf924",
        "957be561a99a36f872f7c362651144e9ca5a8e5264327127d56a22190cbaf924",
        "729c46e3eed52760d1f4d861cba6c251045bf8eb380765b654153b5e9d46e367", (3936, 3727, 179)),
    51: ("60710f0aeb1c3fc039b3742fc861384893720c4f09ce83319ed6eadc7c227135",
        "60710f0aeb1c3fc039b3742fc861384893720c4f09ce83319ed6eadc7c227135",
        "2076fca30ced9adf993b2c603add1b88bb6180bca07cec2751f42427d01f913c", (4302, 3783, 155)),
    52: ("197b046853948d5f86df5f9e4cfbbdbcd485ec0929b183e2d18a948b73270a94",
        "197b046853948d5f86df5f9e4cfbbdbcd485ec0929b183e2d18a948b73270a94",
        "ff457b8f6e25a861b39a612bad9a25036095f386d741b1400893fc40f24c3a55", (4128, 3603, 157)),
}


def rat_bunch(k: int) -> Bunch:
    return fixtures.random_bunch(random.Random(k), max_layers=4)


def test_the_rat_bunches_are_those_recorded():
    rat = [k for k in range(60) if any(og.RAT in factors(g) for g in rat_bunch(k).groups.values())]
    assert rat == sorted(RAT_BUNCH_REPORTS)


@pytest.mark.parametrize("k", sorted(RAT_BUNCH_REPORTS))
def test_reports_on_rat_bunches_match_the_recorded_digests(k):
    b = rat_bunch(k)
    embed64, embed400, recover, law_calls = RAT_BUNCH_REPORTS[k]
    chain = Chain(b)
    calls = count_calls(chain)
    assert report_sha256(check_chain_laws(chain, 3000, seed=1)) == RAT_LAW_REPORT_SHA256
    assert tuple(len(calls[name]) for name in ("compare", "mul", "negate")) == law_calls
    chain = Chain(b)
    assert report_sha256(check_embedding(chain, chain, identity_embedding(b), 64)) == embed64
    assert report_sha256(check_embedding(chain, chain, identity_embedding(b), 400)) == embed400
    assert report_sha256(recover_bunch_samples(chain)) == recover


def test_law_reports_match_when_totality_stops_at_the_first_triple():
    # compare answers LT both ways on the pool pair of triple 0, so totality
    # fails there and stops: every later law reads compare values that
    # totality never decided
    for seed, (name, b) in enumerate(law_bunches()[:40]):
        chain = Chain(b)
        compare = chain.compare
        pool = list(islice(chain.enumerate_elements(), 48))
        i, j, _ = _sample_triples(len(pool), 1, seed)[0]
        pair = {pool[i], pool[j]}
        chain.compare = (lambda x, y, pair=pair, compare=compare:
                         LT if {x, y} == pair else compare(x, y))
        new = same_laws(chain, samples=400, seed=seed)
        assert new.checks[0].detail == f"asymmetry broken at {pool[i]}, {pool[j]}", name


# ---------------------------------------------------------------------------
# embeddings


def embedding_cases() -> list[tuple[Chain, Chain, EmbeddingSpec]]:
    """Every spec of test_embed.py, the failing ones included, a layer map
    that is not strictly order-preserving, and the identity of each fixture
    and of seeded random bunches.

    Four cases pin the one-triangle scans of `check_embedding`: a
    non-injective layer map, whose strictness fails on (0, 0) < (0, 1), two
    points not adjacent in enumeration order; a spec whose products fail on
    the diagonal while its order holds; a skeleton map that sends u2 onto t,
    whose first failing order pair in pool order, t:e and u2:e, is not
    adjacent in source order, since u1:e lies between; and a 101-point
    carrier, which is exhaustive at neither sample count.

    The block products of `check_embedding` meet two chains with different
    layer sets in s3, zb, jz and lz embedded into their densified bunches
    at rounds 1 and 2, and a failing block in the zb and lz2 destinations
    whose same-layer product is off away from the unit (`off_the_unit`)."""
    s3, ze, lz2 = Chain(fixtures.s3()), Chain(fixtures.ze()), Chain(fixtures.lz2())
    jz, five = Chain(fixtures.jz()), Chain(fixtures.finite_bunch(5))
    lex = og.Lex(og.INT, og.INT)

    def one_layer(group: og.OGroup) -> Chain:
        return Chain(Bunch(("t",), {"t": "O"}, {"t": group}, {}, {}))

    receipt = insert_above(s3.bunch, "u")
    target = Chain(receipt.new_bunch)
    trivial = og.identity(og.TRIVIAL)
    cases = [
        (s3, target, receipt.iota),
        (s3, target, EmbeddingSpec({"t": "u", "u": "t"}, {"t": trivial, "u": trivial})),
        (ze, ze, EmbeddingSpec({"t": "t"}, {"t": og.scale_int(2)})),
        (ze, ze, identity_embedding(ze.bunch)),
        (ze, ze, EmbeddingSpec({"t": "t"}, {"t": og.unit_map(og.INT, og.INT)})),
        (lz2, lz2, EmbeddingSpec({"t": "t", "u": "u"},
                                 {"t": og.scale_int(3), "u": og.scale_int(3)})),
        (lz2, lz2, EmbeddingSpec({"t": "t", "u": "u"},
                                 {"t": og.scale_int(2), "u": og.scale_int(2)})),
        (one_layer(lex), one_layer(og.INT),
         EmbeddingSpec({"t": "t"}, {"t": og.project_first(lex)})),
        (jz, lz2, EmbeddingSpec({"t": "t", "u": "u"},
                                {"t": og.unit_map(og.TRIVIAL, og.INT), "u": og.identity(og.INT)})),
        (five, five, EmbeddingSpec({"t": "t", "u1": "u1", "u2": "t"},
                                   dict.fromkeys(five.bunch.skeleton, trivial))),
    ]
    rng = random.Random(11)
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.random_bunch(rng, max_layers=4) for _ in range(10)]
    bunches.append(fixtures.finite_bunch(101))
    bunches += j_then_project_bunches()
    cases += [(Chain(b), Chain(b), identity_embedding(b)) for b in bunches]
    for name in ("s3", "zb", "jz", "lz"):
        b = fixtures.ALL[name]()
        cases += [(Chain(b), Chain(densify_driver(Chain(b), 3, rounds)[0]), identity_embedding(b))
                  for rounds in (1, 2)]
    cases += [(Chain(b), off_the_unit(b, u), identity_embedding(b))
              for b, u in ((fixtures.zb(), "t"), (fixtures.lz2(), "u"))]
    return cases


def off_the_unit(b: Bunch, u: str) -> Chain:
    """The chain of ``b`` with a same-layer product on ``u`` that is one
    step off wherever neither operand is the layer unit: commutative, so the
    first failing pair of both scans lies in one triangle."""
    chain = Chain(b)
    right, e = chain._same[u], chain._unit[u]

    def wrong(x, y):
        z = right(x, y)
        return z if e in (x.g, y.g) else z._replace(g=z.g + 1)
    chain._same[u] = wrong
    return chain


def test_an_off_the_unit_product_fails_at_the_reference_pair():
    for b, u in ((fixtures.zb(), "t"), (fixtures.lz2(), "u")):
        src, dst, spec = Chain(b), off_the_unit(b, u), identity_embedding(b)
        new = check_embedding(src, dst, spec, samples=64).first("element-product")
        ref = reference_check_embedding(src, dst, spec, samples=64).first("element-product")
        assert not new.ok and new == ref, (u, new)


@pytest.mark.parametrize("samples", [64, 9, 100])
def test_embedding_reports_match_the_reference(samples):
    reports = []
    for src, dst, spec in embedding_cases():
        new = check_embedding(src, dst, spec, samples=samples)
        ref = reference_check_embedding(src, dst, spec, samples=samples)
        assert new.render() == ref.render()
        assert new.samples == ref.samples
        reports.append(new)
    assert not all(r.ok for r in reports)


def test_ill_typed_spec_raises_in_both():
    s3, zb = Chain(fixtures.s3()), Chain(fixtures.zb())
    trivial = og.identity(og.TRIVIAL)
    spec = EmbeddingSpec({"t": "t", "u": "u"}, {"t": trivial, "u": trivial})
    for check in (check_embedding, reference_check_embedding):
        with pytest.raises(TypeMismatch):
            check(s3, zb, spec)


# ---------------------------------------------------------------------------
# symbolic recovery


def recovery_chains() -> list[tuple[Chain, tuple[int, ...]]]:
    """Each chain with the sample counts it is recovered at: 1000 only on the
    fixtures and the J-then-project_first bunches, which keeps the random
    and finite bunches cheap."""
    rng = random.Random(15)
    cases = [(Chain(f()), (0, 7, 1000)) for _, f in sorted(fixtures.ALL.items())]
    cases += [(Chain(fixtures.finite_bunch(n)), (0, 7)) for n in range(1, 13)]
    cases += [(Chain(fixtures.random_bunch(rng, max_layers=6)), (0, 7)) for _ in range(50)]
    return cases + [(Chain(b), (0, 7, 1000)) for b in j_then_project_bunches()]


def test_recovery_reports_match_the_reference():
    for chain, counts in recovery_chains():
        for samples in counts:
            new = recover_bunch_samples(chain, samples=samples)
            assert new == reference_recover_bunch_samples(chain, samples=samples)
            assert new.ok, new.render()


def mul_drops_the_lower_layer(chain):
    mul = chain.mul
    return "mul", lambda x, y: mul(x, y) if x.layer == y.layer else max(
        x, y, key=lambda z: chain.bunch.index(z.layer))


@pytest.mark.parametrize("patch", [mul_drops_the_lower_layer, negate_is_identity,
                                   negate_drops_the_dot])
def test_recovery_reports_match_the_reference_on_broken_chains(patch):
    reports = []
    for chain in broken_chains(patch):
        new = recover_bunch_samples(chain, samples=7)
        assert new == reference_recover_bunch_samples(chain, samples=7)
        reports.append(new)
    assert not all(r.ok for r in reports)


# ---------------------------------------------------------------------------
# sup_extend


def bounded_rationals() -> Bunch:
    """Like zb over the rationals.  Its placed products are not monotone in
    the placement order, so the table needs its maximum over both axes."""
    return Bunch(("t", "u"), {"t": "O", "u": "I"}, {"t": og.RAT, "u": og.TRIVIAL},
                 {"u": og.whole(og.TRIVIAL)}, {("t", "u"): og.unit_map(og.RAT, og.TRIVIAL)})


def test_bisect_counts_the_points_below_as_the_earlier_loop():
    rng = random.Random(11)
    for _ in range(2000):
        qs = sorted(Fraction(rng.randint(0, 40), rng.randint(1, 12))
                    for _ in range(rng.randint(0, 30)))
        a = Fraction(rng.randint(-2, 42), rng.randint(1, 12))
        assert bisect_left(qs, a) == count_below(qs, a), (qs, a)


@pytest.mark.parametrize("make, prefix", [(fixtures.zb, 80),
                                          (fixtures.zb, 200),
                                          (lambda: fixtures.finite_bunch(31), 16),
                                          (bounded_rationals, 24)])
def test_sup_extend_matches_the_reference_on_a_grid(make, prefix):
    assert_sup_extend_matches_the_reference(Chain(make()), prefix)


def assert_sup_extend_matches_the_reference(chain: Chain, prefix: int) -> None:
    placement = cantor_map(chain, prefix)
    grid = [Fraction(k, 96) for k in range(97)]
    for depth in (0, 6, 200):
        tables = reference_extended_tables(chain, placement, depth)
        expected = [reference_sup_extend(tables, a, b) for a in grid for b in grid]
        got = [sup_extend(chain, placement, a, b, depth) for a in grid for b in grid]
        assert got == expected, depth


def test_sup_extend_matches_the_reference_on_a_non_monotone_product():
    # commutative, as the half-size table assumes, but not monotone: products
    # at odd group values are negated, so a read needs the maxima over both
    # axes, not the product at the rectangle's corner or along one row
    chain = Chain(fixtures.zb())
    raw = chain.mul

    def scrambled(x, y):
        z = raw(x, y)
        return chain.negate(z) if z.layer == "t" and z.g % 2 else z
    chain.mul = scrambled
    assert_sup_extend_matches_the_reference(chain, 40)


EXTENSION_BUNCHES = {
    "zb": fixtures.zb,
    "s3": fixtures.s3,
    **{f"finite_bunch({n})": lambda n=n: fixtures.finite_bunch(n) for n in (3, 9, 41)},
    **{f"densify(s3, 3, {r})": lambda r=r: densify_driver(Chain(fixtures.s3()), 3, r)[0]
       for r in (2, 4)},
}


@pytest.mark.parametrize("name", EXTENSION_BUNCHES)
def test_the_extension_matches_the_multi_pass_reference(name):
    chain = Chain(EXTENSION_BUNCHES[name]())
    for prefix in (2, 5, 17, 60, 200):
        placement = cantor_map(chain, prefix)
        for depth in (0, 1, 3, 10, 50, 200):
            got = extend_with_products(chain, placement, depth)
            expected = reference_extend_with_products(chain, placement, depth)
            assert got.placed() == expected.placed(), (prefix, depth)
            assert got.to_csv() == expected.to_csv(), (prefix, depth)


# `mul` calls of the extension at zb, prefix 200, depth 200; the multi-pass
# reference makes 40,600, multiplying again every pair an earlier pass settled
EXTENSION_MUL_CALLS = 20_500


def test_the_extension_multiplies_each_pair_once():
    chain = Chain(fixtures.zb())
    placement = cantor_map(chain, 200)
    calls = count_calls(chain)
    extend_with_products(chain, placement, 200)
    pairs = [frozenset(args) for args in calls["mul"]]
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= EXTENSION_MUL_CALLS


# ---------------------------------------------------------------------------
# densification


def reference_fresh_label(b: Bunch, v: str, above: bool) -> str:
    sign = "+" if above else "-"
    k = 1
    while f"{v}{sign}{k}" in b.partition:
        k += 1
    return f"{v}{sign}{k}"


def reference_insert(b: Bunch, v: str, above: bool, label: str | None) -> InsertionReceipt:
    pos = b.index(v)
    new = label if label is not None else reference_fresh_label(b, v, above)
    if new in b.partition:
        raise UnknownLayer(f"label {new!r} already in the skeleton")
    group = b.groups[v]
    at = pos + 1 if above else pos
    skeleton = b.skeleton[:at] + (new,) + b.skeleton[at:]
    partition = dict(b.partition) | {new: "I"}
    groups = dict(b.groups) | {new: group}
    subgroups = dict(b.subgroups) | {new: og.whole(group)}
    steps = dict(b.steps)
    if above:
        nxt = b.skeleton[pos + 1] if pos + 1 < len(b.skeleton) else None
        if nxt is not None:
            steps[(new, nxt)] = steps.pop((v, nxt))
        steps[(v, new)] = og.identity(group)
    else:
        prev = b.skeleton[pos - 1]
        steps[(prev, new)] = steps.pop((prev, v))
        steps[(new, v)] = og.identity(group)
    new_bunch = Bunch(skeleton, partition, groups, subgroups, steps)
    iota = identity_embedding(b)
    maker = lambda g: ChainElement(new, g, False)
    return InsertionReceipt(new_bunch, new, iota, maker)


def reference_insert_above(b: Bunch, v: str, label: str | None = None) -> InsertionReceipt:
    """Extend the bunch with a copy layer covering ``v`` in the skeleton."""
    if b.partition.get(v) is None:
        raise UnknownLayer(f"layer {v!r} not in skeleton")
    if b.partition[v] == "J":
        raise LayerClassError(
            f"cannot insert above class-J layer {v!r}: the copy step would "
            "have to identify the unit with its lower cover")
    return reference_insert(b, v, True, label)


def reference_insert_below(b: Bunch, v: str, label: str | None = None) -> InsertionReceipt:
    """Extend the bunch with a copy layer covered by ``v`` in the skeleton."""
    if b.partition.get(v) is None:
        raise UnknownLayer(f"layer {v!r} not in skeleton")
    if v == b.least():
        raise LeastLayerError("cannot insert below the least layer")
    if b.partition[v] == "I" and not og.subgroup_is_whole(b.subgroups[v]):
        raise SubgroupObstruction(
            f"cannot insert below {v!r}: the copy-to-original step is onto "
            "the whole group and cannot land in the proper subgroup")
    return reference_insert(b, v, False, label)


def reference_fill_gap(chain: Chain, x: ChainElement, y: ChainElement,
                       label: str | None = None) -> tuple[Chain, TraceRecord]:
    """Extend an odd chain so that something sits strictly between x and y."""
    if chain.type() != BunchType.ODD:
        raise EvenTypeUnsupported("gap filling needs an odd chain")
    if chain.compare(x, y) != og.LT:
        raise NotLess(f"{format_element(chain, x)} is not strictly below "
                      f"{format_element(chain, y)}")
    b = chain.bunch
    u, v = x.layer, y.layer
    iu, iv = b.index(u), b.index(v)
    top = b.skeleton[max(iu, iv)]
    strict = og.cmp_fn(b.groups[top])(
        chain.zeta(u, top, x), chain.zeta(v, top, y)) != 0
    least = b.least()

    if strict:
        below_ok = (v != least
                    and not (b.partition[v] == "I"
                             and not og.subgroup_is_whole(b.subgroups[v])))
        if y.dotted:
            tag, receipt = "1c", reference_insert_above(b, v, label)
            witness = ChainElement(receipt.new_layer, y.g, True)
        elif v == least and u == least:
            tag, receipt = "1a", reference_insert_above(b, least, label)
            witness = receipt.witness_maker(x.g)
        elif below_ok:
            tag, receipt = "1b", reference_insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        else:
            tag, receipt = "1c", reference_insert_above(b, v, label)
            witness = ChainElement(receipt.new_layer, y.g, True)
    else:
        if iu < iv:
            tag, receipt = "2a", reference_insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        elif iu == iv:
            if not (x.dotted and not y.dotted):
                raise InternalInvariant("tied pair in one layer is not dotted below undotted")
            tag, receipt = "2b", reference_insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        else:
            if not x.dotted:
                raise InternalInvariant("tied pair across layers has an undotted left end")
            tag, receipt = "2c", reference_insert_below(b, u, label)
            witness = ChainElement(receipt.new_layer, x.g, True)

    extended = Chain(receipt.new_bunch)
    if extended.compare(x, witness) != og.LT:
        raise InternalInvariant("witness not above x")
    if extended.compare(witness, y) != og.LT:
        raise InternalInvariant("witness not below y")
    new = receipt.new_layer
    return extended, TraceRecord(tag, new, receipt.new_bunch.partition[new], x, y, witness)


def reference_densify_driver(chain: Chain, prefix: int,
                             rounds: int) -> tuple[Bunch, list[TraceRecord]]:
    """Materialize the first ``prefix`` elements, then run ``rounds`` passes
    that separate every adjacent pair of the sorted set, one `fill_gap`, and
    so one bunch and one Chain, per pair."""
    if prefix < 0 or rounds < 0:
        raise ValueError("prefix and rounds must be nonnegative")
    current = chain
    points = list(islice(chain.enumerate_elements(), prefix))
    trace: list[TraceRecord] = []
    for _ in range(rounds):
        order = sorted(points, key=cmp_to_key(current.compare))
        for a, c in zip(order, order[1:]):
            current, record = reference_fill_gap(current, a, c)
            points.append(record.witness)
            trace.append(record)
    return current.bunch, trace


def densify_outcome(driver, b: Bunch, prefix: int, rounds: int) -> tuple:
    """The serialized bunch and the trace, or the class and message raised."""
    try:
        bunch, trace = driver(Chain(b), prefix, rounds)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)
    return serialize_bunch(bunch), trace


def odd_fixtures() -> list[str]:
    return [k for k, f in sorted(fixtures.ALL.items()) if bunch_type(f()) == BunchType.ODD]


@pytest.mark.parametrize("name", odd_fixtures())
def test_densify_matches_the_per_insertion_reference_on_odd_fixtures(name):
    b = fixtures.ALL[name]()
    for prefix in range(9):
        for rounds in range(6):
            assert densify_outcome(densify_driver, b, prefix, rounds) == \
                densify_outcome(reference_densify_driver, b, prefix, rounds), (prefix, rounds)


def test_densify_matches_the_per_insertion_reference_on_random_odd_bunches():
    rng = random.Random(11)
    bunches: list[Bunch] = []
    while len(bunches) < 50:
        b = fixtures.random_bunch(rng, max_layers=5)
        if bunch_type(b) == BunchType.ODD:
            bunches.append(b)
    raised = 0
    for i, b in enumerate(bunches):
        for prefix, rounds in ((4, 2), (6, 2), (3, 3)):
            got = densify_outcome(densify_driver, b, prefix, rounds)
            assert got == densify_outcome(reference_densify_driver, b, prefix, rounds), \
                (i, prefix, rounds)
            raised += isinstance(got[0], type)
    assert 0 < raised < 150  # both outcomes are exercised


def test_densify_on_even_fixtures_raises_only_once_a_pass_has_a_pair():
    even = [k for k in sorted(fixtures.ALL) if k not in odd_fixtures()]
    assert even
    for name in even:
        b = fixtures.ALL[name]()
        for prefix in range(4):
            for rounds in range(6):
                got = densify_outcome(densify_driver, b, prefix, rounds)
                assert got == densify_outcome(reference_densify_driver, b, prefix, rounds)
                assert (got[0] is EvenTypeUnsupported) == (prefix >= 2 and rounds >= 1)


@pytest.mark.parametrize("name", odd_fixtures())
def test_the_chain_fill_gap_returns_is_the_chain_of_its_bunch(name):
    chain = Chain(fixtures.ALL[name]())
    order = sorted(islice(chain.enumerate_elements(), 8), key=cmp_to_key(chain.compare))
    for x, y in zip(order, order[1:]):
        try:
            extended, _ = fill_gap(chain, x, y)
        except SubgroupObstruction:
            continue
        rebuilt = Chain(extended.bunch)
        points = list(islice(rebuilt.enumerate_elements(), 200))
        assert list(islice(extended.enumerate_elements(), 200)) == points
        for a in points:
            assert extended.negate(a) == rebuilt.negate(a)
            for b in points:
                assert extended.compare(a, b) == rebuilt.compare(a, b)
                assert extended.mul(a, b) == rebuilt.mul(a, b)
        return
    raise AssertionError(f"no gap of {name} could be filled")


def fill_gap_outcome(fill, chain: Chain, x: ChainElement, y: ChainElement) -> tuple:
    """The serialized bunch and the record, or the class and message raised."""
    try:
        extended, record = fill(chain, x, y)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)
    return serialize_bunch(extended.bunch), record


@pytest.mark.parametrize("name", sorted(fixtures.ALL))
def test_fill_gap_matches_the_reference_on_every_prefix_pair(name):
    chain = Chain(fixtures.ALL[name]())
    points = list(islice(chain.enumerate_elements(), 6))
    for x in points:
        for y in points:
            assert fill_gap_outcome(fill_gap, chain, x, y) == \
                fill_gap_outcome(reference_fill_gap, chain, x, y), (x, y)


# ---------------------------------------------------------------------------
# the table round trip: the full oracle first, then the reconstruction


_REFERENCE_AXIOM_ERRORS = {"involution": NotInvolutive, "odd-or-even": NotOddOrEven}


def reference_decompose_table(tbl: CayleyTable) -> DecompositionResult:
    """Split a checked table into its skeleton, partition, and layer data.

    Layers are the positive idempotents; each element lands in the layer of
    its local unit; an element of a class-I layer is dotted exactly when it
    is the shifted copy of an invertible one.  Trivial layer groups are
    checked, not assumed: a violation raises InternalInvariant, since it
    would mean the axiom checker is wrong.
    """
    report = check_flea_axioms(tbl)
    if not report.ok:
        bad = report.violations()[0]
        raise _REFERENCE_AXIOM_ERRORS.get(bad.clause, AxiomFailure)(bad.detail, bad.witness)
    n, p, t, f = tbl.size, tbl.product, tbl.unit, tbl.falsum
    neg = [brute_residuum(tbl, x, f) for x in range(n)]
    local_unit = [brute_residuum(tbl, x, x) for x in range(n)]

    kappa = [u for u in range(n) if u >= t and p[u][u] == u]
    if kappa != sorted(set(local_unit)):
        raise InternalInvariant("skeleton characterizations disagree")

    classes: dict[int, str] = {}
    for u in kappa:
        if u == t:
            classes[u] = "O" if f == t else ("I" if p[f][f] == f else "J")
        else:
            nu = neg[u]
            classes[u] = "I" if p[nu][nu] == nu else "J"

    layers: dict[int, list[int]] = {u: [] for u in kappa}
    for x in range(n):
        layers[local_unit[x]].append(x)

    names = {u: ("t" if i == 0 else f"u{i}") for i, u in enumerate(kappa)}
    assignment: dict[int, ChainElement] = {}
    for u in kappa:
        name = names[u]
        if classes[u] == "I":
            invertible = [x for x in layers[u] if p[x][neg[u]] < x]
            exists_inverse = [x for x in layers[u]
                              if any(p[x][y] == u for y in layers[u])]
            if invertible != exists_inverse:
                raise InternalInvariant("invertibility characterizations disagree")
            dotted = {p[x][neg[u]]: x for x in invertible}
            group_part = [x for x in layers[u] if x not in dotted]
            # the class-I layer operation, written with double residuation,
            # must collapse to the plain product on the trivial layer group
            twisted = brute_residuum(tbl, brute_residuum(tbl, p[u][u], u), u)
            if twisted != u:
                raise InternalInvariant("twisted layer product did not collapse")
            for shifted in dotted:
                assignment[shifted] = ChainElement(name, og.UNIT, True)
        else:
            group_part = list(layers[u])
        if group_part != [u]:
            raise InternalInvariant(f"layer group of idempotent {u} is not trivial")
        if brute_residuum(tbl, u, u) != u:
            raise InternalInvariant(f"idempotent {u} is not its own local unit")
        assignment[u] = ChainElement(name, og.UNIT, False)
    for u in kappa:
        for v in kappa:
            if u <= v and p[v][u] != v:
                raise InternalInvariant("idempotent multiplication is not the transition")

    skeleton = tuple(names[u] for u in kappa)
    partition = {names[u]: classes[u] for u in kappa}
    groups = {names[u]: og.TRIVIAL for u in kappa}
    subgroups = {names[u]: og.whole(og.TRIVIAL) for u in kappa if classes[u] == "I"}
    steps = {(skeleton[i], skeleton[i + 1]): og.unit_map(og.TRIVIAL, og.TRIVIAL)
             for i in range(len(skeleton) - 1)}
    bunch = Bunch(skeleton, partition, groups, subgroups, steps)
    if not validate(bunch).ok:
        raise InternalInvariant("decomposition produced an invalid bunch")
    if len(assignment) != n:
        raise InternalInvariant("layer assignment is not a bijection")
    layer_of = {x: assignment[x].layer for x in range(n)}
    return DecompositionResult(bunch, assignment, layer_of)


def reference_roundtrip_table(tbl: CayleyTable) -> RoundTripWitness:
    """Explicit order- and product-preserving bijection between ``tbl`` and
    the chain rebuilt from its decomposition."""
    result = reference_decompose_table(tbl)
    chain = Chain(result.bunch)
    mapping = result.layer_assignment
    carrier = set(chain.enumerate_elements())
    if set(mapping.values()) != carrier:
        raise RoundTripMismatch("reconstructed carrier differs from the assignment")
    for i in range(tbl.size - 1):
        if chain.compare(mapping[i], mapping[i + 1]) >= 0:
            raise RoundTripMismatch(f"order mismatch between {i} and {i + 1}")
    for i in range(tbl.size):
        for j in range(tbl.size):
            if chain.mul(mapping[i], mapping[j]) != mapping[tbl.product[i][j]]:
                raise RoundTripMismatch(f"product mismatch at cell ({i}, {j})")
    t, f = chain.constants()
    if mapping[tbl.unit] != t or mapping[tbl.falsum] != f:
        raise RoundTripMismatch("constants not preserved")
    return RoundTripWitness(result, mapping, tbl.size)


def roundtrip_outcome(roundtrip, tbl: CayleyTable) -> tuple:
    """The bunch, the mapping and the layers, or the class, message and
    witness raised."""
    try:
        w = roundtrip(tbl)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e), getattr(e, "witness", None)
    return w.result.bunch, w.mapping, w.result.layer_of, w.size


def decompose_outcome(decompose, tbl: CayleyTable) -> tuple:
    """The bunch, the assignment and the layers, or the class, message and
    witness raised."""
    try:
        r = decompose(tbl)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e), getattr(e, "witness", None)
    return r.bunch, r.layer_assignment, r.layer_of


@cache  # the corpus, the mutations and the round trips share the tables
def finite_table(n: int) -> CayleyTable:
    return table_of_chain(Chain(fixtures.finite_bunch(n)))[0]


def with_cells(tbl: CayleyTable, value: int, *cells: tuple[int, int]) -> CayleyTable:
    rows = [list(row) for row in tbl.product]
    for i, j in cells:
        rows[i][j] = value
    return CayleyTable(tbl.size, tuple(map(tuple, rows)), tbl.unit, tbl.falsum)


def symmetric_mutations(tbl: CayleyTable) -> list[CayleyTable]:
    """Every table that differs from ``tbl`` in one cell and its mirror."""
    n, p = tbl.size, tbl.product
    return [with_cells(tbl, v, (i, j), (j, i))
            for i in range(n) for j in range(i, n) for v in range(n) if v != p[i][j]]


def one_sided_mutations(tbl: CayleyTable) -> list[CayleyTable]:
    """Every table that differs from ``tbl`` in one off-diagonal cell only
    (a diagonal cell is its own mirror, so those are symmetric mutations)."""
    n, p = tbl.size, tbl.product
    return [with_cells(tbl, v, (i, j))
            for i in range(n) for j in range(n) if i != j for v in range(n) if v != p[i][j]]


def roundtrip_corpus() -> tuple[list[CayleyTable], list[CayleyTable]]:
    """The lawful tables (every table the search finds up to 10 elements and the
    finite chains up to 40) and the altered ones (every single-cell mutation
    of a finite chain's table up to 9 elements, and the swapped constants)."""
    lawful = [tbl for n in range(1, 11) for tbl in lawful_tables(n)]
    lawful += [finite_table(n) for n in range(1, 41)]
    altered = [CayleyTable(tbl.size, tbl.product, tbl.falsum, tbl.unit)
               for tbl in lawful if tbl.unit != tbl.falsum]
    for n in range(1, 10):
        altered += symmetric_mutations(finite_table(n)) + one_sided_mutations(finite_table(n))
    return lawful, altered


def assert_one_oracle_call_per_failure(monkeypatch, run, reference, outcome) -> None:
    """``run`` gives ``reference``'s outcome on the whole corpus, calling
    the oracle never on a lawful table and once on an altered one."""
    lawful, altered = roundtrip_corpus()
    calls = [0]

    def counted(tbl):
        calls[0] += 1
        return check_flea_axioms(tbl)

    monkeypatch.setattr(decompose_module, "check_flea_axioms", counted)
    for tbl in lawful:
        got = outcome(run, tbl)
        assert got == outcome(reference, tbl), tbl
        assert isinstance(got[0], Bunch) and calls == [0], tbl
    for tbl in altered:
        calls[0] = 0
        got = outcome(run, tbl)
        assert got == outcome(reference, tbl), tbl
        # no single-cell change leaves a lawful chain; the full oracle decides
        # each failure, once
        assert not isinstance(got[0], Bunch) and calls == [1], tbl


def test_roundtrip_matches_the_oracle_first_reference(monkeypatch):
    assert_one_oracle_call_per_failure(monkeypatch, roundtrip_table,
                                       reference_roundtrip_table, roundtrip_outcome)


def test_decompose_matches_the_oracle_first_reference(monkeypatch):
    # one path: `decompose_table` is the certified round trip, so the oracle
    # runs only after a failed reconstruction, never before decomposing
    assert_one_oracle_call_per_failure(monkeypatch, decompose_table,
                                       reference_decompose_table, decompose_outcome)


def trivial_bunches(layers: int) -> list[Bunch]:
    """Every bunch of ``layers`` trivial layer groups: O, I or J on the least
    layer, I or J above it (the only subgroup and step are the whole group
    and the unit map)."""
    labels = ("t",) + tuple(f"u{i}" for i in range(1, layers))
    bunches = []
    for classes in product("OIJ", *["IJ"] * (layers - 1)):
        partition = dict(zip(labels, classes))
        bunches.append(Bunch(
            labels, partition, {u: og.TRIVIAL for u in labels},
            {u: og.whole(og.TRIVIAL) for u in labels if partition[u] == "I"},
            {(labels[i], labels[i + 1]): og.unit_map(og.TRIVIAL, og.TRIVIAL)
             for i in range(layers - 1)}))
    return bunches


def test_every_lawful_table_is_the_finite_bunchs_table():
    # the premise of `roundtrip_table`'s certificate, pinned by the
    # backtracking search, which knows nothing of bunches: each size has
    # exactly one lawful table, the one of `finite_bunch(n)`'s chain
    for n in range(1, 14):
        assert lawful_tables(n) == [finite_table(n)], n


def test_every_valid_trivial_bunch_has_a_lawful_chain():
    # the other half of that premise: among the bunches of trivial layer
    # groups, `validate` accepts exactly the `finite_bunch(n)`, and the
    # chain of each passes the full oracle, associativity included
    accepted = []
    for layers in range(1, 9):
        for bunch in trivial_bunches(layers):
            if validate(bunch).ok:
                tbl = table_of_chain(Chain(bunch))[0]
                assert check_flea_axioms(tbl).ok, serialize_bunch(bunch)
                accepted.append((tbl.size, bunch))
    assert [(n, fixtures.finite_bunch(n)) for n in range(1, 17)] == accepted


def test_a_trivial_bunch_is_valid_exactly_when_class_j_free():
    # why a bunch of trivial layer groups is valid only without class J, so
    # that `finite_bunch(n)` is the one candidate `roundtrip_table` needs:
    # on such bunches G2 is the only clause that can fail
    for layers in range(1, 9):
        for bunch in trivial_bunches(layers):
            assert validate(bunch).ok == bunch.kappa_j_free(), serialize_bunch(bunch)


@pytest.mark.parametrize("n", range(1, 201))
def test_roundtrip_recovers_the_finite_bunch(n):
    assert roundtrip_table(finite_table(n)).result.bunch == fixtures.finite_bunch(n)


def associativity_only_tables() -> list[CayleyTable]:
    """The symmetric mutations of the finite chains' tables up to 9 elements
    that break associativity and no other clause of the oracle."""
    return [tbl for n in range(1, 10) for tbl in symmetric_mutations(finite_table(n))
            if [c.clause for c in check_flea_axioms(tbl).violations()] == ["associativity"]]


def test_associativity_only_tables_raise_the_oracle_violation(tmp_path, capsys):
    tables = associativity_only_tables()
    assert len(tables) == 55
    path = tmp_path / "t.csv"
    for tbl in tables:
        with pytest.raises(AxiomFailure) as e:
            roundtrip_table(tbl)
        expected = roundtrip_outcome(reference_roundtrip_table, tbl)
        assert (type(e.value), str(e.value), e.value.witness) == expected
        assert str(e.value) == f"table fails associativity at {e.value.witness}"
        path.write_text(format_table_csv(tbl))
        assert cli.main(["decompose", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {e.value}\n"


# ---------------------------------------------------------------------------
# window export


def reference_window_table(chain: Chain, limit: int) -> tuple[CayleyTable, list[ChainElement]]:
    """`window_table` flooring each product that leaves the window by a
    linear `compare` scan over the whole window."""
    if limit < 1:
        raise ValueError("window must contain at least one element")
    elems = sorted(islice(chain.enumerate_elements(), limit),
                   key=cmp_to_key(chain.compare))
    index = {x: i for i, x in enumerate(elems)}

    def locate(z: ChainElement) -> int:
        i = index.get(z)
        if i is not None:
            return i
        lo = 0
        for k, e in enumerate(elems):
            if chain.compare(e, z) <= 0:
                lo = k
        return lo

    product = tuple(tuple(locate(chain.mul(x, y)) for y in elems) for x in elems)
    t, f = chain.constants()
    if t not in index:
        raise WindowTooSmall("unit element outside the window")
    if f not in index:
        raise WindowTooSmall("falsum element outside the window")
    return CayleyTable(len(elems), product, index[t], index[f]), elems


@pytest.mark.parametrize("name", ["zb", "ze", "lz", "lz2", "jz"])
def test_window_tables_match_the_scanning_reference(name):
    chain = Chain(fixtures.ALL[name]())
    for limit in (8, 12, 50, 100, 200):
        assert window_table(chain, limit) == reference_window_table(chain, limit), limit


# ---------------------------------------------------------------------------
# chain kernels against the model


def call_outcome(fn, *args) -> tuple:
    try:
        return "value", fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)


def unit_inside_bunch() -> Bunch:
    """Int -> unit -> Int -> id -> Int: the least layer's threshold is the
    next layer, and the identity above it is compiled."""
    labels = ("t", "u1", "u2")
    return Bunch(labels, {"t": "O", "u1": "I", "u2": "I"}, dict.fromkeys(labels, og.INT),
                 {"u1": og.int_multiples(2), "u2": og.whole(og.INT)},
                 {("t", "u1"): og.unit_map(og.INT, og.INT), ("u1", "u2"): og.identity(og.INT)})


def kernel_bunches() -> list[Bunch]:
    rng = random.Random(16)
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.finite_bunch(n) for n in range(1, 41)]
    bunches += [fixtures.random_bunch(rng, max_layers=8) for _ in range(200)]
    bunches += [densify_driver(Chain(fixtures.s3()), 3, r)[0] for r in range(7)]
    bunches.append(unit_inside_bunch())
    return bunches + j_then_project_bunches()


def test_the_unit_inside_bunch_is_valid_with_its_threshold_inside():
    b = unit_inside_bunch()
    assert validate(b).ok
    chain = Chain(b)
    chain.compare(ChainElement("t", 0), ChainElement("u2", 0))
    assert chain._unit_from == [1, 3, 3]


def test_enumerating_compiles_no_transition_and_builds_no_product_kernel():
    chain = Chain(fixtures.finite_bunch(255))
    assert sum(1 for _ in chain.enumerate_elements()) == 255
    assert chain._tr == {} and chain._same == {}


TRIVIAL_LEX = og.Lex(og.TRIVIAL, og.TRIVIAL)


def mixed_trivial_bunch() -> Bunch:
    """Trivial layers of classes O and I, one of them Lex(Trivial, Trivial),
    between Int, Rat and Lex layers, stepped by unit maps."""
    groups = {"t": og.TRIVIAL, "u1": og.INT, "u2": og.TRIVIAL, "u3": TRIVIAL_LEX,
              "u4": og.RAT, "u5": og.TRIVIAL, "u6": og.Lex(og.INT, og.INT), "u7": og.TRIVIAL}
    sk = tuple(groups)
    partition = {"t": "O", "u1": "I", "u2": "I", "u3": "I", "u4": "J", "u5": "O", "u6": "I",
                 "u7": "I"}
    subgroups = {u: og.whole(groups[u]) for u in sk if partition[u] == "I"}
    subgroups["u1"] = og.int_multiples(2)
    return Bunch(sk, partition, groups, subgroups,
                 {(a, b): og.unit_map(groups[a], groups[b]) for a, b in zip(sk, sk[1:])})


def test_enumeration_matches_the_stream_reference():
    lex_layer_i = Bunch(("t",), {"t": "I"}, {"t": TRIVIAL_LEX}, {"t": og.whole(TRIVIAL_LEX)}, {})
    assert list(Chain(lex_layer_i).enumerate_elements()) == [
        ChainElement("t", (og.UNIT, og.UNIT)), ChainElement("t", (og.UNIT, og.UNIT), True)]
    bunches = kernel_bunches() + table_bunches() + [lex_layer_i, mixed_trivial_bunch()]
    for i, b in enumerate(bunches):
        chain = Chain(b)
        points = list(islice(chain.enumerate_elements(), 300))
        assert points == list(islice(Model(b).enumerate_elements(), 300)), i
        assert all(type(x) is ChainElement for x in points), i
    mixed = list(islice(Chain(mixed_trivial_bunch()).enumerate_elements(), 14))
    assert [(x.layer, x.dotted) for x in mixed] == [
        ("t", False), ("u1", False), ("u1", True), ("u2", False), ("u2", True), ("u3", False),
        ("u3", True), ("u4", False), ("u5", False), ("u6", False), ("u6", True),
        ("u7", False), ("u7", True), ("u1", False)]


def model_table(model: Model, name: str, points: list[ChainElement]) -> list:
    """``[getattr(model, name)(x, y) for x, y in product(points, repeat=2)]``,
    each unordered pair decided once (test_model.py checks the symmetry)."""
    half = [[getattr(model, name)(x, y) for y in points[i:]] for i, x in enumerate(points)]
    flip = (lambda c: -c) if name == "compare" else (lambda z: z)
    return [half[i][j - i] if i <= j else flip(half[j][i - j])
            for i in range(len(points)) for j in range(len(points))]


def test_chain_kernels_match_the_transition_lifting_reference():
    # every ordered pair of the first 64 points; zeta(x.layer, v, x) depends
    # on y only through its layer v, so each (x, v) is lifted once
    for i, b in enumerate(kernel_bunches()):
        chain, ref = Chain(b), Model(b)
        points = list(islice(chain.enumerate_elements(), 64))
        assert all(type(chain.compare(x, x)) is int and chain.compare(x, x) == EQ
                   for x in points), i
        pairs = list(product(points, repeat=2))
        for name in ("compare", "mul"):
            assert list(starmap(getattr(chain, name), pairs)) == \
                model_table(ref, name, points), (i, name)
        lifts = [(x.layer, v, x) for x in points for v in dict.fromkeys(p.layer for p in points)]
        assert [call_outcome(chain.zeta, *a) for a in lifts] == \
            [call_outcome(ref.zeta, *a) for a in lifts], (i, "zeta")


def count_transitions(monkeypatch) -> list[tuple]:
    calls = []

    def counted(*args):
        calls.append(args)
        return transition(*args)

    patch_transition(monkeypatch, counted)
    return calls


def test_finite_tables_compile_no_transition(monkeypatch):
    # every step of a finite bunch is the unit map, so every layer pair is
    # past its threshold
    calls = count_transitions(monkeypatch)
    built = []

    def recorded(bunch):
        built.append(Chain(bunch))
        return built[-1]

    monkeypatch.setattr(decompose_module, "Chain", recorded)
    chain = Chain(fixtures.finite_bunch(81))
    tbl = table_of_chain(chain)[0]
    assert roundtrip_table(tbl).result.bunch == fixtures.finite_bunch(81)
    assert len(built) == 1
    assert chain._tr == {} and built[0]._tr == {}
    assert validate(fixtures.finite_bunch(81)).ok
    assert calls == []


@pytest.mark.parametrize("rounds", range(9))
def test_densify_compiles_no_transition(monkeypatch, rounds):
    calls = count_transitions(monkeypatch)
    densify_driver(Chain(fixtures.s3()), 3, rounds)
    assert calls == []


# ---------------------------------------------------------------------------
# same-layer product tables


def table_bunches() -> list[Bunch]:
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    return bunches + [fixtures.random_bunch(random.Random(k), max_layers=4) for k in range(40)]


def tables(chain: Chain) -> dict[str, dict]:
    return {u: k.table for u, k in chain._same.items() if hasattr(k, "table")}


def test_same_layer_products_match_the_fresh_reference():
    # each product, tabled or fresh, is the model's and sits where the model
    # orders it against its left factor
    tabled = 0
    for i, b in enumerate(table_bunches()):
        chain, reference = Chain(b), Model(b)
        points = list(islice(chain.enumerate_elements(), 64))
        for x, y in product(points, repeat=2):
            if x.layer != y.layer:
                continue
            z, ref = chain.mul(x, y), reference.mul(x, y)
            assert (z, type(z), z.dotted, type(z.g)) == \
                (ref, ChainElement, ref.dotted, type(ref.g)), (i, x, y)
            assert chain.compare(z, x) == reference.compare(ref, x), (i, x, y)
        tabled += len(tables(chain))
    assert tabled == 55  # class O and J layers with products met


def lex_layer(group: og.OGroup, cls: str = "O") -> Bunch:
    return Bunch(("t",), {"t": cls}, {"t": group}, {}, {})


@pytest.mark.parametrize("b", [fixtures.zb(), fixtures.ze(), fixtures.jz(),
                               lex_layer(og.Lex(og.INT, og.INT)),
                               lex_layer(og.Lex(og.INT, og.INT), "J")])
def test_equal_products_on_a_tabled_layer_are_one_object(b):
    chain = Chain(b)
    u = next(u for u in b.skeleton if not og.group_is_trivial(b.groups[u]))
    values = og.g_enumerate(b.groups[u])
    _, a, c = next(values), next(values), next(values)  # two after the unit
    x, y = ChainElement(u, a), ChainElement(u, c)
    z = chain.mul(x, y)
    assert chain.mul(y, x) is z
    assert chain.mul(ChainElement(u, c), ChainElement(u, a)) is z
    assert list(tables(chain)) == [u] and tables(chain)[u] == {z.g: z}


@pytest.mark.parametrize("b, u", [
    (lex_layer(og.RAT), "t"), (lex_layer(og.Lex(og.INT, og.RAT)), "t"),
    (lex_layer(og.Lex(og.RAT, og.INT)), "t"), (fixtures.lz(), "u"), (fixtures.lz2(), "u")])
def test_rat_layers_table_their_products_and_class_i_layers_build_none(b, u):
    # Rat values are int pairs, so a Rat layer of class O tables its products
    # as any other does; a class-I layer builds no table
    chain, reference = Chain(b), Model(b)
    points = [x for x in islice(chain.enumerate_elements(), 64) if x.layer == u]
    products = [chain.mul(x, y) for x in points for y in points]
    assert products == [reference.mul(x, y) for x in points for y in points]
    if b.partition[u] == "I":
        assert not hasattr(chain._same[u], "table")
    else:
        e, table = chain._unit[u], tables(chain).get(u)
        assert list(tables(chain)) == [u]
        assert all(z is table[z.g] for x in points for y in points
                   if x.g != e and y.g != e for z in [chain.mul(x, y)])


def test_a_unit_operand_returns_the_other_operand():
    chain = Chain(fixtures.ze())
    e = ChainElement("t", 0)
    for k in (5, -3):
        x = ChainElement("t", k)
        assert chain.mul(x, e) is x and chain.mul(e, x) is x
    x = ChainElement("t", 0)
    assert chain.mul(x, e) is x and chain.mul(e, x) is e
    assert tables(chain) == {"t": {}}


def test_a_table_stops_growing_at_the_cap():
    chain = Chain(fixtures.ze())
    one, cap = ChainElement("t", 1), chain_module.TABLE_CAP
    for k in range(1, cap + 500):
        z = chain.mul(ChainElement("t", k), one)
        assert (z, type(z)) == (ChainElement("t", k + 1, False), ChainElement)
    assert len(tables(chain)["t"]) == cap
    assert chain.mul(ChainElement("t", cap + 600), one) == ChainElement("t", cap + 601)
    assert len(tables(chain)["t"]) == cap


# table points per chain after a law check at 3000 samples, an embedding
# check and a recovery: an upper bound on what a workload round keeps per chain
TABLE_POINTS = {"zb": 127, "ze": 133, "jz": 130, "lz": 43, "lz2": 52}


@pytest.mark.parametrize("name", sorted(TABLE_POINTS))
def test_tables_stay_small_through_the_checks(name):
    b = fixtures.ALL[name]()
    chain = Chain(b)
    check_chain_laws(chain, 3000, seed=1)
    check_embedding(chain, chain, identity_embedding(b))
    recover_bunch_samples(chain)
    assert 0 < sum(map(len, tables(chain).values())) <= TABLE_POINTS[name]


# ---------------------------------------------------------------------------
# order and complement against the model, on equal twins too


def fresh_value(g: og.GElem) -> og.GElem:
    """A value equal to ``g`` that shares none of its pairs."""
    if isinstance(g, tuple):
        return tuple([fresh_value(v) for v in g])
    return g


def twin(x: ChainElement) -> ChainElement:
    return ChainElement(x.layer, fresh_value(x.g), x.dotted)


def test_compare_and_negate_match_the_earlier_methods():
    twins = dotted_pairs = 0
    for i, b in enumerate(table_bunches()):
        chain, reference = Chain(b), Model(b)
        pool = list(islice(chain.enumerate_elements(), 64))
        points = pool + [twin(x) for x in pool]
        twins += sum(1 for x in pool if isinstance(x.g, tuple))
        order = iter(model_table(reference, "compare", points))
        few = list(product(pool[:8], repeat=2))
        assert list(starmap(chain.residuum, few)) == list(starmap(reference.residuum, few)), i
        for x in points:
            z, ref = call_outcome(chain.negate, x), call_outcome(reference.negate, x)
            assert z == ref and type(z[1]) is type(ref[1]), (i, x)
            for y in points:
                assert chain.compare(x, y) == next(order), (i, x, y)
                dotted_pairs += x.layer == y.layer and x.g == y.g and x.dotted != y.dotted
    assert twins > 1000 and dotted_pairs > 1000


def test_a_class_j_complement_without_covers_raises_at_the_call():
    b = Bunch(("t",), {"t": "J"}, {"t": og.RAT}, {}, {})
    chain, reference = Chain(b), Model(b)
    x = ChainElement("t", (1, 2))
    assert chain.compare(x, x) == EQ and chain.mul(x, x) == ChainElement("t", (1, 1))
    for _ in range(2):  # once building the layer's kernel, once with it built
        assert call_outcome(chain.negate, x) == call_outcome(reference.negate, x) \
            == (CoverMissing, "class-J layer 't' has no covers")
