from __future__ import annotations

import pytest

from layerlat import cli, fixtures, ogroup as og
from layerlat.bunch import Bunch, validate
from layerlat.chain import Chain, ChainElement
from layerlat.decompose import (decompose_table, recover_bunch_samples,
                                roundtrip_table, table_of_chain, window_table)
from layerlat.errors import (AxiomFailure, InfiniteChain, NotInvolutive, NotOddOrEven,
                             RoundTripMismatch, WindowTooSmall)
from layerlat.oracle import CayleyTable, brute_residuum, format_table_csv
from table_search import lawful_tables

S3_TABLE = CayleyTable(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)), 1, 1)
EVEN2 = CayleyTable(2, ((0, 0), (0, 1)), 1, 0)


def test_decompose_s3_shape():
    result = decompose_table(S3_TABLE)
    b = result.bunch
    assert len(b.skeleton) == 2
    t, u = b.skeleton
    assert b.partition[t] == "O" and b.partition[u] == "I"
    assert all(g == og.TRIVIAL for g in b.groups.values())
    assert og.subgroup_is_whole(b.subgroups[u])
    assert validate(b).ok
    assert result.layer_assignment[0] == ChainElement(u, og.UNIT, True)
    assert result.layer_assignment[1] == ChainElement(t, og.UNIT, False)
    assert result.layer_assignment[2] == ChainElement(u, og.UNIT, False)


def test_decompose_two_element_even_chain():
    result = decompose_table(EVEN2)
    b = result.bunch
    assert b.skeleton == ("t",)
    assert b.partition["t"] == "I"
    assert result.layer_assignment[0].dotted
    assert not result.layer_assignment[1].dotted


def test_decompose_one_element_chain():
    result = decompose_table(CayleyTable(1, ((0,),), 0, 0))
    assert result.bunch.skeleton == ("t",)
    assert result.bunch.partition["t"] == "O"


def test_decompose_rejects_bad_tables():
    with pytest.raises(AxiomFailure) as e:
        decompose_table(CayleyTable(3, ((0, 0, 2), (0, 1, 2), (2, 2, 2)), 1, 1))
    assert str(e.value) == "table fails residuation at (2, 0)" and e.value.witness == (2, 0)
    with pytest.raises(AxiomFailure) as e:
        decompose_table(CayleyTable(2, ((0, 1), (0, 1)), 1, 0))
    assert str(e.value) == "table fails commutativity at (0, 1)" and e.value.witness == (0, 1)
    # the min-product chain is residuated and commutative, but its
    # complement is constant, not an involution
    godel = CayleyTable(4, tuple(tuple(min(x, y) for y in range(4))
                                 for x in range(4)), 3, 3)
    with pytest.raises(NotInvolutive) as e:
        decompose_table(godel)
    assert str(e.value) == "double complement moves 0 to 3" and e.value.witness == (0, 3, 3)
    # the bounded-sum chain is involutive, but its falsum sits at the
    # bottom rather than at the unit or its lower cover
    luk = CayleyTable(4, tuple(tuple(max(0, x + y - 3) for y in range(4))
                               for x in range(4)), 3, 0)
    with pytest.raises(NotOddOrEven) as e:
        decompose_table(luk)
    assert str(e.value) == "falsum 0 is neither unit 3 nor its lower cover"
    assert e.value.witness == (3, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_roundtrip_on_enumerated_chains(n):
    for tbl in lawful_tables(n):
        witness = roundtrip_table(tbl)
        assert witness.size == n


def test_invalid_decomposition_raises_under_optimisation(monkeypatch):
    # explicit raises, not asserts, so python -O keeps the certificate; the
    # oracle passes the lawful S3_TABLE, so a wrong candidate surfaces the
    # certificate's own error: first a carrier of the wrong size, then one of
    # the right size (an invalid class-J bunch) whose products differ
    j_above = Bunch(("t", "u1"), {"t": "I", "u1": "J"},
                    {"t": og.TRIVIAL, "u1": og.TRIVIAL}, {"t": og.whole(og.TRIVIAL)},
                    {("t", "u1"): og.unit_map(og.TRIVIAL, og.TRIVIAL)})
    for candidate, message in ((fixtures.finite_bunch(2), "candidate chain has 2 points, not 3"),
                               (j_above, r"product mismatch at cell \(0, 2\)")):
        monkeypatch.setattr("layerlat.decompose.finite_bunch", lambda n, b=candidate: b)
        with pytest.raises(RoundTripMismatch, match=message):
            roundtrip_table(S3_TABLE)


def test_a_table_failing_only_associativity_is_rejected(tmp_path, capsys):
    # 1 * 1 = 0 keeps every O(n^2) clause of the four-element chain, so
    # only the full oracle, run after the reconstruction fails, can name it
    base = table_of_chain(Chain(fixtures.finite_bunch(4)))[0]
    rows = [list(row) for row in base.product]
    rows[1][1] = 0
    tbl = CayleyTable(4, tuple(map(tuple, rows)), base.unit, base.falsum)
    with pytest.raises(AxiomFailure) as e:
        roundtrip_table(tbl)
    assert str(e.value) == "table fails associativity at (1, 1, 3)"
    assert e.value.witness == (1, 1, 3)
    path = tmp_path / "t4.csv"
    path.write_text(format_table_csv(tbl))
    assert cli.main(["decompose", str(path)]) == 1
    assert capsys.readouterr().err == "error: table fails associativity at (1, 1, 3)\n"


def test_roundtrip_five_element_chain_has_two_dotted_layers():
    tbl = lawful_tables(5)[0]
    witness = roundtrip_table(tbl)
    b = witness.result.bunch
    assert [b.partition[u] for u in b.skeleton] == ["O", "I", "I"]


def test_table_of_chain_requires_finite(zb_chain):
    with pytest.raises(InfiniteChain):
        table_of_chain(zb_chain)


def test_window_table_ze_clipped_residuum(ze_chain):
    tbl, elems = window_table(ze_chain, 7)
    values = [e.g for e in elems]
    assert values == [-3, -2, -1, 0, 1, 2, 3]
    # exhaustive max over the window, by definition
    x, z = values.index(2), values.index(1)
    assert values[brute_residuum(tbl, x, z)] == -1
    assert values[tbl.unit] == 0 and values[tbl.falsum] == -1


def test_window_table_needs_constants_inside(ze_chain):
    with pytest.raises(WindowTooSmall):
        window_table(ze_chain, 2)  # falsum -1 is enumerated third


def test_recover_identities_exhaustive_on_s3(s3_chain):
    report = recover_bunch_samples(s3_chain, samples=10)
    assert report.ok, report.render()


def test_recover_identities_need_a_sample_count_of_at_least_zero(zb_chain):
    with pytest.raises(ValueError, match="samples must be at least 0"):
        recover_bunch_samples(zb_chain, samples=-1)
    report = recover_bunch_samples(zb_chain, samples=0)
    assert report.ok and report.samples == 0  # 0 means 0, as in validate
    assert all(c.samples == 0 for c in report.checks)


def test_recover_identities_try_each_layer_once_below_one_per_layer(zb_chain):
    # a positive request smaller than the layer count still tries every layer
    report = recover_bunch_samples(zb_chain, samples=1)
    assert report.first("(a)").samples == 3  # t:0, u:0 and its dotted copy


@pytest.mark.parametrize("name", ["zb", "lz", "lz2", "jz"])
def test_recover_identities_sampled(name):
    chain = Chain(fixtures.ALL[name]())
    report = recover_bunch_samples(chain, samples=1000)
    assert report.ok, report.render()
    assert report.samples >= 1000
