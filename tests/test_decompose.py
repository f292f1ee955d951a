from __future__ import annotations

import types

import pytest

from layerlat import fixtures, ogroup as og
from layerlat.bunch import validate
from layerlat.chain import Chain, ChainElement
from layerlat.decompose import (decompose_table, recover_bunch_samples,
                                roundtrip_table, table_of_chain, window_table)
from layerlat.errors import (AxiomFailure, InfiniteChain, InternalInvariant,
                             NotInvolutive, NotOddOrEven, WindowTooSmall)
from layerlat.oracle import CayleyTable, brute_residuum, enumerate_finite_chains

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
    with pytest.raises(AxiomFailure):
        decompose_table(CayleyTable(3, ((0, 0, 2), (0, 1, 2), (2, 2, 2)), 1, 1))
    # the min-product chain is residuated and commutative, but its
    # complement is constant, not an involution
    godel = CayleyTable(4, tuple(tuple(min(x, y) for y in range(4))
                                 for x in range(4)), 3, 3)
    with pytest.raises(NotInvolutive):
        decompose_table(godel)
    # the bounded-sum chain is involutive, but its falsum sits at the
    # bottom rather than at the unit or its lower cover
    luk = CayleyTable(4, tuple(tuple(max(0, x + y - 3) for y in range(4))
                               for x in range(4)), 3, 0)
    with pytest.raises(NotOddOrEven):
        decompose_table(luk)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_roundtrip_on_enumerated_chains(n):
    for tbl in enumerate_finite_chains(n):
        witness = roundtrip_table(tbl)
        assert witness.size == n


def test_invalid_decomposition_raises_under_optimisation(monkeypatch):
    # an explicit raise, not an assert, so python -O keeps the check
    failing = types.SimpleNamespace(ok=False)
    monkeypatch.setattr("layerlat.decompose.validate", lambda bunch: failing)
    with pytest.raises(InternalInvariant, match="invalid bunch"):
        roundtrip_table(S3_TABLE)


def test_roundtrip_five_element_chain_has_two_dotted_layers():
    tbl = enumerate_finite_chains(5)[0]
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


@pytest.mark.parametrize("name", ["zb", "lz", "lz2", "jz"])
def test_recover_identities_sampled(name):
    chain = Chain(fixtures.ALL[name]())
    report = recover_bunch_samples(chain, samples=1000)
    assert report.ok, report.render()
    assert report.checked >= 1000
