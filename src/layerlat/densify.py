"""Skeleton insertion operators and gap filling for odd chains.

Inserting a fresh class-I layer just above or below an existing layer ``v``
reuses the carrier of ``v``'s group (the copy isomorphism is the identity),
rewires the covering steps, and gives the new layer the whole subgroup.  The
source bunch embeds coordinatewise-identically, and the copy of an element
is its upper (insert_above) or lower (insert_below) cover in the new chain.

fill_gap picks an insertion and a witness strictly between an ordered pair:
when the lifted group parts compare strictly, the pair is separated by a
copy of the right endpoint (dotted above its layer when the endpoint is
dotted or below-insertion is unavailable, undotted below it otherwise, with
the left endpoint's copy above the unit layer for unit-layer pairs); when
the lifted parts tie, the dispatch follows which tie-breaking clause ordered
the pair (2a/2b: undotted copy below the right layer; 2c: dotted copy below
the left layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice
from typing import Callable

from . import ogroup as og
from .bunch import Bunch, BunchType
from .chain import Chain, ChainElement, format_element
from .embed import EmbeddingSpec, identity_embedding
from .errors import (EvenTypeUnsupported, InternalInvariant, LayerClassError,
                     LeastLayerError, NotLess, SubgroupObstruction, UnknownLayer)


@dataclass
class InsertionReceipt:
    new_bunch: Bunch
    new_layer: str
    iota: EmbeddingSpec
    witness_maker: Callable[[og.GElem], ChainElement]


@dataclass
class GapFillResult:
    case_tag: str
    receipt: InsertionReceipt
    witness: ChainElement
    chain: Chain  # the chain of receipt.new_bunch


@dataclass(frozen=True)
class TraceRecord:
    case_tag: str
    inserted_layer: str
    inserted_class: str
    x: ChainElement
    y: ChainElement
    witness: ChainElement


def fresh_label(b: Bunch, v: str, above: bool) -> str:
    sign = "+" if above else "-"
    k = 1
    while f"{v}{sign}{k}" in b.partition:
        k += 1
    return f"{v}{sign}{k}"


def _insert(b: Bunch, v: str, above: bool, label: str | None) -> InsertionReceipt:
    pos = b.index(v)
    new = label if label is not None else fresh_label(b, v, above)
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


def insert_above(b: Bunch, v: str, label: str | None = None) -> InsertionReceipt:
    """Extend the bunch with a copy layer covering ``v`` in the skeleton."""
    if b.partition.get(v) is None:
        raise UnknownLayer(f"layer {v!r} not in skeleton")
    if b.partition[v] == "J":
        raise LayerClassError(
            f"cannot insert above class-J layer {v!r}: the copy step would "
            "have to identify the unit with its lower cover")
    return _insert(b, v, True, label)


def insert_below(b: Bunch, v: str, label: str | None = None) -> InsertionReceipt:
    """Extend the bunch with a copy layer covered by ``v`` in the skeleton."""
    if b.partition.get(v) is None:
        raise UnknownLayer(f"layer {v!r} not in skeleton")
    if v == b.least():
        raise LeastLayerError("cannot insert below the least layer")
    if b.partition[v] == "I" and not og.subgroup_is_whole(b.subgroups[v]):
        raise SubgroupObstruction(
            f"cannot insert below {v!r}: the copy-to-original step is onto "
            "the whole group and cannot land in the proper subgroup")
    return _insert(b, v, False, label)


def fill_gap(chain: Chain, x: ChainElement, y: ChainElement,
             label: str | None = None) -> GapFillResult:
    """Extend an odd chain so that something sits strictly between x and y.

    Works for any strictly ordered pair, gap or not.  Raises
    EvenTypeUnsupported on even chains (their falsum/unit gap cannot be
    filled without collapsing the constants) and SubgroupObstruction when a
    required below-insertion targets a proper-subgroup class-I layer.
    """
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
            tag, receipt = "1c", insert_above(b, v, label)
            witness = ChainElement(receipt.new_layer, y.g, True)
        elif v == least and u == least:
            tag, receipt = "1a", insert_above(b, least, label)
            witness = receipt.witness_maker(x.g)
        elif below_ok:
            tag, receipt = "1b", insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        else:
            # same construction as 1c: the dotted copy of y's group part in a
            # fresh layer just above y's layer is strictly between the pair
            tag, receipt = "1c", insert_above(b, v, label)
            witness = ChainElement(receipt.new_layer, y.g, True)
    else:
        if iu < iv:
            tag, receipt = "2a", insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        elif iu == iv:
            if not (x.dotted and not y.dotted):
                raise InternalInvariant("tied pair in one layer is not dotted below undotted")
            tag, receipt = "2b", insert_below(b, v, label)
            witness = receipt.witness_maker(y.g)
        else:
            if not x.dotted:
                raise InternalInvariant("tied pair across layers has an undotted left end")
            tag, receipt = "2c", insert_below(b, u, label)
            witness = ChainElement(receipt.new_layer, x.g, True)

    extended = Chain(receipt.new_bunch)
    if extended.compare(x, witness) != og.LT:
        raise InternalInvariant("witness not above x")
    if extended.compare(witness, y) != og.LT:
        raise InternalInvariant("witness not below y")
    return GapFillResult(tag, receipt, witness, extended)


def densify_driver(chain: Chain, prefix: int, rounds: int) -> tuple[Bunch, list[TraceRecord]]:
    """Materialize the first ``prefix`` elements, then run ``rounds`` passes
    that separate every ordered pair lacking a strictly-between element
    among the materialized set: the adjacent pairs of the sorted set, as a
    witness never separates a later pair of its pass.  Elements keep their
    coordinates across insertions because each embedding is the
    coordinatewise identity."""
    if prefix < 0 or rounds < 0:
        raise ValueError("prefix and rounds must be nonnegative")
    current = chain
    points = list(islice(chain.enumerate_elements(), prefix))
    trace: list[TraceRecord] = []
    for _ in range(rounds):
        order = sorted(points, key=cmp_to_key(current.compare))
        for a, c in zip(order, order[1:]):
            result = fill_gap(current, a, c)
            current = result.chain
            points.append(result.witness)
            trace.append(TraceRecord(
                result.case_tag, result.receipt.new_layer,
                result.receipt.new_bunch.partition[result.receipt.new_layer],
                a, c, result.witness))
    return current.bunch, trace


def preserves_idempotent_symmetry(trace: list[TraceRecord]) -> bool:
    """Audit that every insertion of a trace went to the class-I partition;
    combined with a class-J-free source this keeps the extension class-J
    free as well."""
    return all(record.inserted_class == "I" for record in trace)
