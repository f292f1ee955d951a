"""The layer-group embedding criterion between two chains.

A candidate embedding is given coordinatewise: a skeleton map plus one hom
per source layer; the induced element map carries (u, g, dotted) to
(skeleton_map(u), layer_maps[u](g), dotted).  `check_embedding` returns a
`report.Report` with one `Check` per clause and subject: skeleton
order/least/partition preservation, commuting transition squares, subgroup
membership both ways on class-I layers, unit covers on class-J layers, and a
direct order/product/constants check on sampled elements.  Both sides of a
transition square are the two chains' own `Chain.lift` maps.

Both chains' `Chain.compare` are linear orders, so the element-order clause
is certified by sorting the sampled pool by the source order and checking
that the images ascend strictly on neighbours: about P log P + P compares for
P samples, not P(P - 1).  Only when that fails does the scan of every
unordered pair run, so the report names the first failing pair in pool
order.  That scan and the product scan check each unordered pair once, since
`Chain.compare` is antisymmetric and `Chain.mul` commutative.  Products are
compared as lists by layer blocks (`Chain.mul_block`), a block mapped by the
identity onto its own label being its own image; the pair scan runs only
when some block differs, so it names the first failing pair.  Every DSL hom
is an order-preserving group hom by construction, so of a layer map only its
strictness is checked, on neighbours of its sorted pool, since the group
orders are linear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice

from . import ogroup as og
from .bunch import Bunch
from .chain import Chain, ChainElement, _new
from .errors import CoverMissing, ParseError, TypeMismatch
from .report import EMBED, Check, Report


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    skeleton_map: dict[str, str]
    layer_maps: dict[str, og.Hom]


def element_map(spec: EmbeddingSpec, x: ChainElement) -> ChainElement:
    fn = og.hom_fn(spec.layer_maps[x.layer])
    return ChainElement(spec.skeleton_map[x.layer], fn(x.g), x.dotted)


def identity_embedding(src: Bunch) -> EmbeddingSpec:
    """The coordinatewise identity, for targets extending ``src``'s layers."""
    return EmbeddingSpec({u: u for u in src.skeleton},
                         {u: og.identity(src.groups[u]) for u in src.skeleton})


def _typecheck(src: Bunch, dst: Bunch, spec: EmbeddingSpec) -> None:
    for u in src.skeleton:
        if u not in spec.skeleton_map:
            raise TypeMismatch(f"skeleton_map misses layer {u!r}")
        v = spec.skeleton_map[u]
        if v not in dst.partition:
            raise TypeMismatch(f"skeleton_map sends {u!r} to unknown layer {v!r}")
        h = spec.layer_maps.get(u)
        if h is None:
            raise TypeMismatch(f"layer_maps misses layer {u!r}")
        if h.source != src.groups[u] or h.target != dst.groups[v]:
            raise TypeMismatch(f"layer map for {u!r} has wrong source or target group")


def check_embedding(src: Chain, dst: Chain, spec: EmbeddingSpec,
                    samples: int = 64) -> Report:
    """Run every embedding clause; the element checks are exhaustive
    ("proved") when the source carrier has at most ``samples`` points."""
    if samples < 0:
        raise ValueError("samples must be at least 0")
    sb, db = src.bunch, dst.bunch
    _typecheck(sb, db, spec)
    report = Report([], samples, EMBED)
    smap = spec.skeleton_map

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

    # once per call, not once per clause or element: each layer map is looked
    # up, and each layer's sample pool enumerated and mapped
    maps = {u: og.hom_fn(spec.layer_maps[u]) for u in sb.skeleton}
    pools = {u: list(islice(og.g_enumerate(sb.groups[u]), samples)) for u in sb.skeleton}
    mapped = {u: [maps[u](a) for a in pools[u]] for u in sb.skeleton}

    def emap(x: ChainElement) -> ChainElement:
        return _new(ChainElement, (smap[x.layer], maps[x.layer](x.g), x.dotted))

    for u in sb.skeleton:
        cmp_s = og.cmp_fn(sb.groups[u])
        cmp_d = og.cmp_fn(db.groups[smap[u]])
        pairs = sorted(zip(pools[u], mapped[u]),
                       key=cmp_to_key(lambda p, q: cmp_s(p[0], q[0])))
        strict_ok = all(cmp_s(a, c) == 0 or cmp_d(fa, fc) < 0
                        for (a, fa), (c, fc) in zip(pairs, pairs[1:]))
        lm = "proved" if og.group_is_trivial(sb.groups[u]) else "tested"
        report.checks.append(Check(
            "layer-group-hom", u, strict_ok, lm,
            "" if strict_ok else "not strictly order-preserving"))

    for i, u in enumerate(sb.skeleton):
        for v in sb.skeleton[i:]:
            if db.index(smap[u]) > db.index(smap[v]):
                report.checks.append(Check(
                    "transition-square", f"{u}->{v}", False, "proved",
                    "image layers are not skeleton-ordered"))
                continue
            src_tr, dst_tr = src.lift(u, v), dst.lift(smap[u], smap[v])
            fv = maps[v]
            bad = next((a for a, fa in zip(pools[u], mapped[u])
                        if fv(src_tr(a)) != dst_tr(fa)), None)
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
        bad = next((a for a, fa in zip(pools[u], mapped[u])
                    if mem_s(a) != mem_d(fa)), None)
        lm = "proved" if og.group_is_trivial(sb.groups[u]) else "tested"
        report.checks.append(Check(
            "subgroup-both-ways", u, bad is None, lm,
            "" if bad is None else f"membership not reflected at {bad!r}"))

    for u in sb.skeleton:
        if sb.partition[u] != "J":
            continue
        fn = maps[u]
        up_s = og.g_cover_up(sb.groups[u], og.g_unit(sb.groups[u]))
        up_d = og.g_cover_up(db.groups[smap[u]], og.g_unit(db.groups[smap[u]]))
        ok = up_s is not None and fn(up_s) == up_d
        detail = ("" if ok else f"the unit of {u!r} has no upper cover" if up_s is None
                  else f"cover of the unit maps to {fn(up_s)!r}, expected {up_d!r}")
        report.checks.append(Check("unit-cover", u, ok, "proved", detail))

    pool = list(islice(src.enumerate_elements(), samples + 1))
    method = "proved" if len(pool) <= samples else "tested"
    del pool[samples:]
    images = [emap(x) for x in pool]
    # compare is antisymmetric and mul commutative on both chains, so (j, i)
    # fails exactly when (i, j) does: the first failure of a scan over all
    # pairs has i <= j, and i < j for order, which never fails at i == j.
    # The pool's points are distinct, so the order scan runs only when the
    # images of the source-sorted pool do not ascend strictly
    ranked = sorted(zip(pool, images), key=cmp_to_key(lambda p, q: src.compare(p[0], q[0])))
    bad = None
    if not all(dst.compare(fa, fc) < 0 for (_, fa), (_, fc) in zip(ranked, ranked[1:])):
        for i, (x, fx) in enumerate(zip(pool, images)):
            bad = next(((x, y) for y, fy in zip(pool[i + 1:], images[i + 1:])
                        if src.compare(x, y) != dst.compare(fx, fy)), None)
            if bad:
                break
    report.checks.append(Check(
        "element-order", "carrier", bad is None, method,
        "" if bad is None else f"order not preserved at {bad}"))
    # row i multiplies pool[i] by each layer's block from pool index i on
    blocks: dict[str, tuple[list, list]] = {}
    for x, fx in zip(pool, images):
        xs, fxs = blocks.setdefault(x.layer, ([], []))
        xs.append(x)
        fxs.append(fx)
    start = dict.fromkeys(blocks, 0)
    fixed = {u for u in sb.skeleton if smap[u] == u and spec.layer_maps[u].op == "id"}

    def emap_block(zs: list[ChainElement]) -> list[ChainElement]:  # points of one layer
        w = zs[0].layer
        if w in fixed:  # each image is equal to its point
            return zs
        fn, lw = maps[w], smap[w]
        return [_new(ChainElement, (lw, fn(z.g), z.dotted)) for z in zs]

    def rows_agree() -> bool:
        for x, fx in zip(pool, images):
            for u, (xs, fxs) in blocks.items():
                s = start[u]
                if s < len(xs) and (emap_block(src.mul_block(x, xs[s:]))
                                    != dst.mul_block(fx, fxs[s:])):
                    return False
            start[x.layer] += 1
        return True

    bad = None
    if not rows_agree():  # the pair scan names the first failing pair
        bad = next(((x, y) for i, (x, fx) in enumerate(zip(pool, images))
                    for y, fy in zip(pool[i:], images[i:])
                    if emap(src.mul(x, y)) != dst.mul(fx, fy)), None)
    report.checks.append(Check(
        "element-product", "carrier", bad is None, method,
        "" if bad is None else f"product not preserved at {bad}"))
    try:  # a class-J least layer without covers has no falsum
        (ts, fs), (td, fd) = src.constants(), dst.constants()
    except CoverMissing as e:
        detail = str(e)
    else:
        detail = "" if emap(ts) == td and emap(fs) == fd else "constants not preserved"
    report.checks.append(Check("element-constants", "t, f", not detail, "proved", detail))
    return report


# ---------------------------------------------------------------------------
# spec files


def serialize_embedding_spec(spec: EmbeddingSpec, src: Bunch) -> str:
    doc = {
        "skeleton_map": {u: spec.skeleton_map[u] for u in src.skeleton},
        "layer_maps": {u: og.hom_to_json(spec.layer_maps[u]) for u in src.skeleton},
    }
    return json.dumps(doc, indent=2)


def parse_embedding_spec(text: str, src: Bunch, dst: Bunch) -> EmbeddingSpec:
    doc = og.load_json(text)
    if not isinstance(doc, dict) or set(doc) != {"skeleton_map", "layer_maps"}:
        raise ParseError("embedding spec needs exactly skeleton_map and layer_maps")
    smap = doc["skeleton_map"]
    lmaps = doc["layer_maps"]
    if not isinstance(smap, dict) or set(smap) != set(src.skeleton):
        raise ParseError("skeleton_map: must map exactly the source skeleton")
    if not isinstance(lmaps, dict) or set(lmaps) != set(src.skeleton):
        raise ParseError("layer_maps: must map exactly the source skeleton")
    layer_maps = {}
    for u in src.skeleton:
        v = smap[u]
        if not isinstance(v, str) or v not in dst.partition:
            raise ParseError(f"skeleton_map.{u}: unknown target layer {v!r}")
        try:
            layer_maps[u] = og.hom_from_json(lmaps[u], src.groups[u], dst.groups[v])
        except ParseError as e:
            raise ParseError(f"layer_maps.{u}: {e}") from None
    return EmbeddingSpec(dict(smap), layer_maps)
