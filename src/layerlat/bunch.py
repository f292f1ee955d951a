"""Bunches of layer groups: a finite totally ordered skeleton of layers, one
abelian o-group per layer, designated subgroups on class-I layers, and
order-hom transitions stored on covering pairs.  `transition` composes them
once per bunch, in `hom_compose`'s normal form, for its one compiler,
`Chain`, which every chain reader and `validate` go through.  `Chain` asks
only for the pairs below its per-layer constant-unit threshold, which it
reads off the steps themselves, so a bunch whose steps are unit maps has no
transition composed at all.

Layer classes are "O" (only ever the least layer), "J" (discrete layers whose
transitions collapse the unit's lower cover), and "I" (layers carrying a
subgroup whose elements get dotted companions in the reconstructed chain).

A `Bunch` is structurally sound: its constructor raises `TypeMismatch`
naming every `structural_problems` entry.  So `validate` checks the bunch
laws G1-G3 and D1-D2 and returns a `report.Report`, one `Check` per clause
and subject.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from . import ogroup as og
from .errors import LayerOrderError, ParseError, TypeMismatch, UnknownLayer
from .report import VALIDATE, Check, Report

if TYPE_CHECKING:
    from .chain import Chain

LAYER_CLASSES = ("O", "J", "I")


class BunchType(enum.Enum):
    ODD = "Odd"
    EVEN_NON_IDEM_F = "EvenNonIdemF"
    EVEN_IDEM_F = "EvenIdemF"


@dataclass(frozen=True)
class Bunch:
    """Immutable, structurally sound bunch (construction raises
    `TypeMismatch` otherwise); maps are plain dicts treated as frozen.

    ``skeleton`` is the ascending list of distinct layer labels (list order
    *is* the skeleton order); ``steps`` holds one hom per consecutive pair.
    """

    skeleton: tuple[str, ...]
    partition: dict[str, str]
    groups: dict[str, og.OGroup]
    subgroups: dict[str, og.Subgroup]
    steps: dict[tuple[str, str], og.Hom]
    # u -> [transition(u, u), transition(u, next layer), ...] as far as asked
    _transitions: dict[str, list[og.Hom]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        problems = structural_problems(self)
        if problems:
            raise TypeMismatch("bunch is structurally broken: " + "; ".join(problems))
        object.__setattr__(self, "_positions", {u: i for i, u in enumerate(self.skeleton)})

    def least(self) -> str:
        return self.skeleton[0]

    def index(self, layer: str) -> int:
        try:
            return self._positions[layer]
        except KeyError:
            raise UnknownLayer(f"layer {layer!r} not in skeleton {list(self.skeleton)}") from None

    def consecutive_pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.skeleton, self.skeleton[1:]))

    def kappa_j_free(self) -> bool:
        return all(c != "J" for c in self.partition.values())


def bunch_type(b: Bunch) -> BunchType:
    cls = b.partition[b.least()]
    if cls == "O":
        return BunchType.ODD
    if cls == "J":
        return BunchType.EVEN_NON_IDEM_F
    return BunchType.EVEN_IDEM_F


def transition(b: Bunch, u: str, v: str) -> og.Hom:
    """The composed transition hom from layer ``u`` up to layer ``v``: the
    steps above ``u`` are folded in one at a time and every prefix is kept."""
    iu, iv = b.index(u), b.index(v)
    if iu > iv:
        raise LayerOrderError(f"transition requested downward: {u!r} above {v!r}")
    prefix = b._transitions.get(u)
    if prefix is None:
        prefix = b._transitions[u] = [og.identity(b.groups[u])]
    sk = b.skeleton
    for i in range(iu + len(prefix), iv + 1):
        prefix.append(og.hom_compose(b.steps[(sk[i - 1], sk[i])], prefix[-1]))
    return prefix[iv - iu]


# ---------------------------------------------------------------------------
# validation


def structural_problems(b: Bunch) -> list[str]:
    """Structural-completeness defects that make the bunch unusable."""
    problems = []
    if not b.skeleton:
        return ["skeleton is empty"]
    if len(set(b.skeleton)) != len(b.skeleton):
        problems.append("skeleton labels are not distinct")
    for u in b.skeleton:
        if not u or ":" in u or "->" in u:
            problems.append(f"layer label {u!r} is empty or contains ':' or '->'")
    layer_set = set(b.skeleton)
    if set(b.partition) != layer_set:
        problems.append("partition does not cover exactly the skeleton")
    for u, c in b.partition.items():
        if c not in LAYER_CLASSES:
            problems.append(f"partition[{u!r}] = {c!r} is not one of {LAYER_CLASSES}")
    if set(b.groups) != layer_set:
        problems.append("groups do not cover exactly the skeleton")
    kappa_i = {u for u in b.skeleton if b.partition.get(u) == "I"}
    if set(b.subgroups) != kappa_i:
        problems.append("subgroups must be given for exactly the class-I layers")
    for u, sub in b.subgroups.items():
        if u in b.groups and sub.ambient != b.groups[u]:
            problems.append(f"subgroup of {u!r} has wrong ambient group")
    expected_pairs = set(zip(b.skeleton, b.skeleton[1:]))
    if set(b.steps) != expected_pairs:
        problems.append("steps must be given for exactly the consecutive layer pairs")
    for (u, v), hom in b.steps.items():
        if u in b.groups and hom.source != b.groups[u]:
            problems.append(f"step {u!r}->{v!r} has wrong source group")
        if v in b.groups and hom.target != b.groups[v]:
            problems.append(f"step {u!r}->{v!r} has wrong target group")
    return problems


def validate(b: Bunch, samples: int = 100) -> Report:
    """The bunch's `_audit` as a `report.Report`; raises if samples < 0 or `Chain(b)` does."""
    return _audit(b, samples).report()


class Audit(NamedTuple):
    """What one pass over the bunch laws found: the failed checks alone, and
    the `Chain` they were decided on.  ``ok`` is the verdict; `report` is
    `validate`'s report, built from them."""

    samples: int
    chain: Chain
    failed: dict[tuple, Check]  # by clause and layer positions: ("D2", i, j, k), ...

    @property
    def ok(self) -> bool:
        return not self.failed

    def report(self) -> Report:
        """Each failed check where it failed, a passing one for every other subject."""
        failed = self.failed
        b = self.chain.bunch
        sk, n = b.skeleton, len(b.skeleton)
        unit_from = self.chain.thresholds()
        checks = [Check("structure", "bunch", True, "structural")]  # a `Bunch` is sound
        checks += [c for key, c in failed.items() if key[0] == "G1"] \
            or [Check("G1", sk[0], True, "structural")]
        checks.append(Check("D1", "all layers", True, "structural"))  # `Chain.lift`'s identity
        for i, u in enumerate(sk):
            if b.partition[u] == "J" and ("G2", i) in failed:  # u's group is not discrete
                checks.append(failed["G2", i])
            elif b.partition[u] == "J":
                checks.append(Check("G2", f"{u} discrete", True, "structural"))
                checks += [failed.get(("G2", i, k)) or Check("G2", f"{u}->{sk[k]}", True, "exact")
                           for k in range(i + 1, n)]
        for k, v in enumerate(sk):
            if b.partition[v] == "I":
                whole = og.subgroup_is_whole(b.subgroups[v])
                checks += [failed.get(("G3", i, k)) or Check(
                    "G3", f"{u}->{v}", True,
                    "structural" if whole or k >= unit_from[i] else "sampled")
                    for i, u in enumerate(sk[:k])]
        checks += [failed.get(("D2", i, j, k))
                   or Check("D2", f"{sk[i]}->{sk[j]}->{sk[k]}", True, "sampled")
                   for i in range(n) for j in range(i, n) for k in range(j, n)]
        return Report(checks, self.samples, VALIDATE)


def _audit(b: Bunch, samples: int) -> Audit:
    """Decide every bunch law in one pass and keep the checks that failed.
    The bunch is structurally sound, so its chain is built first; an error of
    that build, such as an unknown subgroup constructor, propagates.  A
    clause that holds by construction is not computed: a transition at or
    past `Chain.thresholds` lands in any subgroup, and a whole subgroup
    absorbs anything.  Otherwise the first
    ``samples`` elements of the source group go through `Chain.lift`; at
    samples 0 the sampled clauses, G3 and D2, build no lift row or span."""
    if samples < 0:
        raise ValueError("samples must be at least 0")
    from .chain import Chain, _Memo  # here, since chain.py imports this module
    chain = Chain(b)
    unit_from = chain.thresholds()
    sk, n = b.skeleton, len(b.skeleton)
    # lifts[i][k] applies the transition from sk[i] up to sk[k] for i <= k;
    # row i is built when a clause first reads it
    lifts = _Memo(lambda i: [None] * i + [chain.lift(sk[i], sk[k]) for k in range(i, n)])
    failed = {("G1", i): Check("G1", u, False, "structural",
                               "class O is reserved for the least layer")
              for i, u in enumerate(sk) if i and b.partition[u] == "O"}

    for i, u in enumerate(sk):
        group = b.groups[u]
        if b.partition[u] == "J" and not og.is_discrete(group):
            failed["G2", i] = Check("G2", u, False, "structural",
                                    f"class-J layer group {group!r} is not discrete")
        elif b.partition[u] == "J":
            down = og.g_cover_down(group, og.g_unit(group))
            for k in range(i + 1, n):
                if lifts[i][k](down) != og.g_unit(b.groups[sk[k]]):
                    failed["G2", i, k] = Check(
                        "G2", f"{u}->{sk[k]}", False, "exact",
                        "transition does not collapse the unit's lower cover")

    if not samples:  # the sampled clauses, G3 and D2, draw nothing to fail on
        return Audit(samples, chain, failed)
    for k, v in enumerate(sk):
        if b.partition[v] != "I" or og.subgroup_is_whole(b.subgroups[v]):
            continue
        member = og.member_fn(b.subgroups[v])
        for i in [i for i in range(k) if k < unit_from[i]]:
            fn, group = lifts[i][k], b.groups[sk[i]]
            x = next((x for x in islice(og.g_enumerate(group), samples) if not member(fn(x))), None)
            if x is not None:
                failed["G3", i, k] = Check(
                    "G3", f"{sk[i]}->{v}", False, "sampled",
                    f"{og.format_gelem(group, x)} maps outside the subgroup", witness=x)

    # D2: the first sample of sk[i] where sk[i]->sk[k] differs from sk[i]->sk[j]
    # then sk[j]->sk[k], each sample streamed once through every transition out
    # of sk[i].  Only i < j < k < unit_from[j] can differ: at i == j or j == k
    # one side is `lift`'s identity, and from sk[j]'s threshold on, at or past
    # sk[i]'s, both sides are `lift`'s constant unit, whatever `transition` is.
    live = [j for j in range(n) if j + 1 < unit_from[j]]
    for i, u in enumerate(sk):
        spans = [(j, range(j + 1, unit_from[j])) for j in live if j > i]
        for x in islice(og.g_enumerate(b.groups[u]), samples) if spans else ():
            images = [None] * i + [f(x) for f in lifts[i][i:]]
            for j, ks in spans:
                mid, second = images[j], lifts[j]
                for k in ks:
                    if images[k] != second[k](mid) and ("D2", i, j, k) not in failed:
                        failed["D2", i, j, k] = Check(
                            "D2", f"{u}->{sk[j]}->{sk[k]}", False, "sampled",
                            f"composition disagrees at {og.format_gelem(b.groups[u], x)}",
                            witness=x)
    return Audit(samples, chain, failed)


# ---------------------------------------------------------------------------
# serialization


def bunch_to_json(b: Bunch) -> dict:
    return {
        "skeleton": list(b.skeleton),
        "partition": {u: b.partition[u] for u in b.skeleton},
        "groups": {u: og.group_to_json(b.groups[u]) for u in b.skeleton},
        "subgroups": {u: og.subgroup_to_json(b.subgroups[u])
                      for u in b.skeleton if u in b.subgroups},
        "steps": {f"{u}->{v}": og.hom_to_json(b.steps[(u, v)])
                  for (u, v) in b.consecutive_pairs()},
    }


def serialize_bunch(b: Bunch) -> str:
    return json.dumps(bunch_to_json(b), indent=2)


def parse_bunch(text: str) -> Bunch:
    return bunch_from_json(og.load_json(text))


def bunch_from_json(doc) -> Bunch:
    if not isinstance(doc, dict):
        raise ParseError("bunch document must be an object")
    unknown = set(doc) - {"skeleton", "partition", "groups", "subgroups", "steps"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    for key in ("skeleton", "partition", "groups", "steps"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    skeleton = doc["skeleton"]
    if not (isinstance(skeleton, list) and skeleton
            and all(isinstance(u, str) for u in skeleton)):
        raise ParseError("skeleton: must be a nonempty list of layer labels")
    if len(set(skeleton)) != len(skeleton):
        raise ParseError("skeleton: labels must be distinct")
    for u in skeleton:  # ':' splits element literals, '->' step keys
        if not u or ":" in u or "->" in u:
            raise ParseError(f"skeleton: bad label {u!r}")

    partition = doc["partition"]
    if not isinstance(partition, dict) or set(partition) != set(skeleton):
        raise ParseError("partition: must map exactly the skeleton labels")
    for u, c in partition.items():
        if c not in LAYER_CLASSES:
            raise ParseError(f"partition.{u}: class must be one of {LAYER_CLASSES}, got {c!r}")

    groups_doc = doc["groups"]
    if not isinstance(groups_doc, dict) or set(groups_doc) != set(skeleton):
        raise ParseError("groups: must map exactly the skeleton labels")
    groups = {}
    for u in skeleton:
        try:
            groups[u] = og.group_from_json(groups_doc[u])
        except ParseError as e:
            raise ParseError(f"groups.{u}: {e}") from None

    subgroups_doc = doc.get("subgroups", {})
    if not isinstance(subgroups_doc, dict):
        raise ParseError("subgroups: must be an object")
    kappa_i = {u for u in skeleton if partition[u] == "I"}
    missing = kappa_i - set(subgroups_doc)
    if missing:
        raise ParseError(f"subgroups.{sorted(missing)[0]}: required for class-I layer")
    extra = set(subgroups_doc) - kappa_i
    if extra:
        raise ParseError(f"subgroups.{sorted(extra)[0]}: layer is not class I")
    subgroups = {}
    for u in filter(kappa_i.__contains__, skeleton):  # in skeleton order
        try:
            subgroups[u] = og.subgroup_from_json(subgroups_doc[u], groups[u])
        except ParseError as e:
            raise ParseError(f"subgroups.{u}: {e}") from None

    steps_doc = doc["steps"]
    if not isinstance(steps_doc, dict):
        raise ParseError("steps: must be an object")
    expected = {f"{u}->{v}": (u, v) for u, v in zip(skeleton, skeleton[1:])}
    if set(steps_doc) != set(expected):
        raise ParseError(f"steps: keys must be exactly {sorted(expected)}")
    steps = {}
    for key, (u, v) in expected.items():
        try:
            steps[(u, v)] = og.hom_from_json(steps_doc[key], groups[u], groups[v])
        except ParseError as e:
            raise ParseError(f"steps.{key}: {e}") from None

    return Bunch(tuple(skeleton), dict(partition), groups, subgroups, steps)
