"""Skeleton insertion operators and gap filling for odd chains.

Inserting a fresh class-I layer just above or below an existing layer ``v``
reuses the carrier of ``v``'s group (the copy isomorphism is the identity),
rewires the covering steps, and gives the new layer the whole subgroup.  The
source bunch embeds coordinatewise-identically, and the copy of an element
is its upper (insert_above) or lower (insert_below) cover in the new chain.

fill_gap picks an insertion and a witness strictly between an ordered pair
(`_plan`): when the lifted group parts compare strictly, the pair is
separated by a copy of the right endpoint (dotted above its layer when the
endpoint is dotted or below-insertion is unavailable, undotted below it
otherwise, with the left endpoint's copy above the unit layer for unit-layer
pairs); when the lifted parts tie, the dispatch follows which tie-breaking
clause ordered the pair (2a/2b: undotted copy below the right layer; 2c:
dotted copy below the left layer).  It returns the extended chain and the
`TraceRecord` of its one-pair pass.

densify_driver sorts the materialized prefix once and carries the order.
Each pass is one splice and one Chain, planned against the chain at the start
of the round: the pairs of a pass are old points, whose order and transitions
no insertion changes (new steps are identities).  `_pass` raises unless
x < w < y holds in the extended chain for every pair, so the old order with
each witness placed between its pair is strictly increasing there: it is the
next round's sorted order, with no re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice
from typing import Callable, Iterable

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


@dataclass(frozen=True)
class TraceRecord:
    case_tag: str
    inserted_layer: str
    inserted_class: str
    x: ChainElement
    y: ChainElement
    witness: ChainElement


def fresh_label(labels, v: str, above: bool) -> str:
    """The first of ``v+1, v+2, ...`` (``v-1, ...`` below) not in ``labels``."""
    sign = "+" if above else "-"
    k = 1
    while f"{v}{sign}{k}" in labels:
        k += 1
    return f"{v}{sign}{k}"


def _obstruction(b: Bunch, v: str, above: bool) -> Exception | None:
    """What inserting next to ``v`` would raise, if anything."""
    if b.partition.get(v) is None:
        return UnknownLayer(f"layer {v!r} not in skeleton")
    if above:
        if b.partition[v] == "J":
            return LayerClassError(
                f"cannot insert above class-J layer {v!r}: the copy step would "
                "have to identify the unit with its lower cover")
    elif v == b.least():
        return LeastLayerError("cannot insert below the least layer")
    elif b.partition[v] == "I" and not og.subgroup_is_whole(b.subgroups[v]):
        return SubgroupObstruction(
            f"cannot insert below {v!r}: the copy-to-original step is onto "
            "the whole group and cannot land in the proper subgroup")
    return None


def _splice(b: Bunch, insertions: list[tuple[str, bool, str]]) -> Bunch:
    """Every ``(v, above, label)`` inserted as if one at a time, the latest
    nearest ``v``: each old layer and its copies form a block joined by
    identity steps, and an old step joins two blocks.  Every ``label`` is a
    `fresh_label`, so none is in the skeleton already."""
    partition, groups, subgroups = dict(b.partition), dict(b.groups), dict(b.subgroups)
    below, above = {}, {}
    for v, up, label in insertions:
        (above if up else below).setdefault(v, []).append(label)
        partition[label] = "I"
        groups[label] = b.groups[v]
        subgroups[label] = og.whole(b.groups[v])
    skeleton, steps = [], {}
    for w in b.skeleton:
        block = [*below.get(w, ()), w, *reversed(above.get(w, ()))]
        if skeleton:
            steps[(skeleton[-1], block[0])] = b.steps[(last, w)]
        ident = og.identity(b.groups[w])
        steps.update((pair, ident) for pair in zip(block, block[1:]))
        skeleton += block
        last = w
    return Bunch(tuple(skeleton), partition, groups, subgroups, steps)


def _insert_one(b: Bunch, v: str, above: bool) -> InsertionReceipt:
    if error := _obstruction(b, v, above):
        raise error
    new = fresh_label(b.partition, v, above)
    return InsertionReceipt(_splice(b, [(v, above, new)]), new, identity_embedding(b),
                            lambda g: ChainElement(new, g, False))


def insert_above(b: Bunch, v: str) -> InsertionReceipt:
    """Extend the bunch with a copy layer covering ``v`` in the skeleton."""
    return _insert_one(b, v, True)


def insert_below(b: Bunch, v: str) -> InsertionReceipt:
    """Extend the bunch with a copy layer covered by ``v`` in the skeleton."""
    return _insert_one(b, v, False)


def _plan(chain: Chain, x: ChainElement, y: ChainElement) -> tuple[str, str, bool, og.GElem, bool]:
    """The case tag, the layer to copy, whether the copy goes above it, and
    the witness's group part and dot, for separating ``x < y``; builds
    nothing, but raises whatever the insertion would."""
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
        if not y.dotted and v == least and u == least:
            plan = "1a", least, True, x.g, False
        elif not y.dotted and _obstruction(b, v, False) is None:
            plan = "1b", v, False, y.g, False
        else:
            # the dotted copy of y's group part in a fresh layer just above
            # y's layer, when y is dotted or below-insertion is unavailable
            plan = "1c", v, True, y.g, True
    elif iu < iv:
        plan = "2a", v, False, y.g, False
    elif iu == iv:
        if not (x.dotted and not y.dotted):
            raise InternalInvariant("tied pair in one layer is not dotted below undotted")
        plan = "2b", v, False, y.g, False
    else:
        if not x.dotted:
            raise InternalInvariant("tied pair across layers has an undotted left end")
        plan = "2c", u, False, x.g, True
    if error := _obstruction(b, plan[1], plan[2]):
        raise error
    return plan


def _pass(chain: Chain,
          pairs: Iterable[tuple[ChainElement, ChainElement]]) -> tuple[Chain, list[TraceRecord]]:
    """Separate every ``x < y`` of ``pairs`` in one splice planned against
    ``chain``, labels counted against those taken so far, and check each
    witness in the chain of the spliced bunch."""
    taken = set(chain.bunch.partition)
    plans, insertions = [], []
    for x, y in pairs:
        tag, v, above, g, dotted = _plan(chain, x, y)
        new = fresh_label(taken, v, above)
        taken.add(new)
        insertions.append((v, above, new))
        plans.append((tag, x, y, ChainElement(new, g, dotted)))
    extended = Chain(_splice(chain.bunch, insertions))
    for _, x, y, witness in plans:
        if extended.compare(x, witness) != og.LT:
            raise InternalInvariant("witness not above x")
        if extended.compare(witness, y) != og.LT:
            raise InternalInvariant("witness not below y")
    partition = extended.bunch.partition
    return extended, [TraceRecord(tag, w.layer, partition[w.layer], x, y, w)
                      for tag, x, y, w in plans]


def fill_gap(chain: Chain, x: ChainElement, y: ChainElement) -> tuple[Chain, TraceRecord]:
    """Extend an odd chain so that something sits strictly between x and y;
    the extended chain and the record of the insertion.

    Works for any strictly ordered pair, gap or not.  Raises
    EvenTypeUnsupported on even chains (their falsum/unit gap cannot be
    filled without collapsing the constants) and SubgroupObstruction when a
    required below-insertion targets a proper-subgroup class-I layer.
    """
    extended, [record] = _pass(chain, [(x, y)])
    return extended, record


def densify_driver(chain: Chain, prefix: int, rounds: int) -> tuple[Bunch, list[TraceRecord]]:
    """Materialize the first ``prefix`` elements, then run ``rounds`` passes
    that separate every ordered pair lacking a strictly-between element
    among the materialized set: the adjacent pairs of the sorted set, as a
    witness never separates a later pair of its pass.  The set is sorted
    once; each pass is one splice and one Chain (`_pass`) and places its
    witnesses in the order (the module docstring says why)."""
    extended, trace = _densify(chain, prefix, rounds)
    return extended.bunch, trace


def _densify(chain: Chain, prefix: int, rounds: int) -> tuple[Chain, list[TraceRecord]]:
    """`densify_driver` with the Chain of its last pass in place of that
    chain's bunch (``chain`` itself when no pass ran)."""
    if prefix < 0 or rounds < 0:
        raise ValueError("prefix and rounds must be nonnegative")
    current = chain
    order = sorted(islice(chain.enumerate_elements(), prefix), key=cmp_to_key(chain.compare))
    trace: list[TraceRecord] = []
    for _ in range(rounds):
        if len(order) < 2:
            break
        current, records = _pass(current, zip(order, order[1:]))
        order = [p for x, r in zip(order, records) for p in (x, r.witness)] + order[-1:]
        trace += records
    return current, trace


def preserves_idempotent_symmetry(trace: list[TraceRecord]) -> bool:
    """Audit that every insertion of a trace went to the class-I partition;
    combined with a class-J-free source this keeps the extension class-J
    free as well."""
    return all(record.inserted_class == "I" for record in trace)
