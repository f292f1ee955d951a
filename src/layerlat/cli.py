"""Batch command-line surface.

Subcommands: validate, type, bounded, eval, table, decompose, embed-check,
fill-gap, densify, enumerate, standardize.  Exit codes: 0 ok, 1 domain
error, 2 usage error.  Randomized sampling is seeded (--seed, default 0);
the LAYERLAT_SAMPLES environment variable overrides default sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import oracle
from .bunch import bunch_to_json, bunch_type, parse_bunch, validate
from .chain import Chain, check_chain_laws, format_element, parse_element
from .decompose import roundtrip_table, table_of_chain, window_table
from .densify import densify_driver, fill_gap
from .embed import check_embedding, parse_embedding_spec
from .errors import InfiniteChain, LayerlatError
from .ogroup import ORDERING_NAMES
from .standardize import cantor_map, extend_with_products


def _samples_default(fallback: int) -> int:
    raw = os.environ.get("LAYERLAT_SAMPLES")
    if raw is None:
        return fallback
    try:
        return max(1, int(raw))
    except ValueError:
        return fallback


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _load_chain(path: str) -> Chain:
    return Chain(parse_bunch(Path(path).read_text()))


def _require_valid(path: str, samples: int) -> Chain:
    bunch = parse_bunch(Path(path).read_text())
    report = validate(bunch, samples=samples)
    if not report.ok:
        raise LayerlatError(f"bunch {path} does not validate:\n{report.render()}")
    return Chain(bunch)


def _cmd_validate(args) -> int:
    bunch = parse_bunch(Path(args.bunch).read_text())
    report = validate(bunch, samples=args.samples)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_type(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    print(chain.type().value)
    return 0


def _cmd_bounded(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    bounds = chain.bounds()
    if bounds is None:
        print(json.dumps({"bounded": False}))
    else:
        top, bottom = bounds
        print(json.dumps({"bounded": True,
                          "top": format_element(chain, top),
                          "bottom": format_element(chain, bottom)}))
    return 0


def _cmd_eval(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    lhs = parse_element(chain, args.lhs)
    if args.op == "neg":
        print(format_element(chain, chain.negate(lhs)))
        return 0
    if args.rhs is None:
        print(f"--rhs is required for op {args.op}", file=sys.stderr)
        return 2
    rhs = parse_element(chain, args.rhs)
    if args.op == "mul":
        print(format_element(chain, chain.mul(lhs, rhs)))
    elif args.op == "res":
        print(format_element(chain, chain.residuum(lhs, rhs)))
    else:
        print(ORDERING_NAMES[chain.compare(lhs, rhs)])
    return 0


def _emit_table(chain: Chain, tbl: oracle.CayleyTable, elems, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(oracle.format_table_csv(tbl))
    elif fmt == "json":
        print(json.dumps({
            "elements": [format_element(chain, e) for e in elems],
            "unit": tbl.unit,
            "falsum": tbl.falsum,
            "product": [list(row) for row in tbl.product],
        }, indent=2))
    else:
        lines = ["digraph chain {", "  rankdir=BT;"]
        for i, e in enumerate(elems):
            lines.append(f'  n{i} [label="{format_element(chain, e)}"];')
        for i in range(len(elems) - 1):
            lines.append(f"  n{i} -> n{i + 1};")
        lines.append("}")
        print("\n".join(lines))


def _cmd_table(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    if chain.is_finite:
        tbl, elems = table_of_chain(chain)
    elif args.limit is None:
        raise InfiniteChain("chain is infinite; pass --limit N for a window export")
    else:
        tbl, elems = window_table(chain, args.limit)
    _emit_table(chain, tbl, elems, args.format)
    return 0


def _cmd_decompose(args) -> int:
    tbl = oracle.parse_table_csv(Path(args.table).read_text())
    witness = roundtrip_table(tbl)
    doc = bunch_to_json(witness.result.bunch)
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"roundtrip ok on {witness.size} elements; bunch written to {args.out}")
    else:
        print(text)
        print(f"roundtrip ok on {witness.size} elements", file=sys.stderr)
    return 0


def _cmd_embed_check(args) -> int:
    src = _require_valid(args.src, args.samples)
    dst = _require_valid(args.dst, args.samples)
    spec = parse_embedding_spec(Path(args.spec).read_text(), src.bunch, dst.bunch)
    report = check_embedding(src, dst, spec, samples=args.samples)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_fill_gap(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    x = parse_element(chain, args.x)
    y = parse_element(chain, args.y)
    result = fill_gap(chain, x, y)
    print(json.dumps({
        "case": result.case_tag,
        "inserted_layer": result.receipt.new_layer,
        "witness": format_element(result.chain, result.witness),
        "bunch": bunch_to_json(result.receipt.new_bunch),
    }, indent=2))
    return 0


def _cmd_densify(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    bunch, trace = densify_driver(chain, args.prefix, args.rounds)
    extended = Chain(bunch)
    print(json.dumps({
        "bunch": bunch_to_json(bunch),
        "trace": [{
            "case_tag": r.case_tag,
            "inserted_layer": r.inserted_layer,
            "x": format_element(extended, r.x),
            "y": format_element(extended, r.y),
            "witness": format_element(extended, r.witness),
        } for r in trace],
    }, indent=2))
    return 0


def _cmd_enumerate(args) -> int:
    tables = oracle.enumerate_finite_chains(args.size, bound=args.bound)
    print("\n".join(oracle.format_table_csv(t) for t in tables), end="")
    print(f"{len(tables)} table(s) of size {args.size}", file=sys.stderr)
    return 0


def _cmd_standardize(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    placement = cantor_map(chain, args.prefix)
    if args.depth:
        placement = extend_with_products(chain, placement, args.depth)
    sys.stdout.write(placement.to_csv())
    return 0


def _cmd_laws(args) -> int:
    chain = _require_valid(args.bunch, args.samples)
    report = check_chain_laws(chain, samples=args.law_samples, seed=args.seed)
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerlat",
        description="Construct, decide, decompose, embed, densify, and "
                    "standardize involutive FL_e-chains given as bunches of layer groups.")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")
    parser.add_argument("--samples", type=_int_at_least(0), default=_samples_default(100),
                        help="sample count for validation and sampled checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a bunch file")
    p.add_argument("bunch")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("type", help="Odd | EvenNonIdemF | EvenIdemF")
    p.add_argument("bunch")
    p.set_defaults(fn=_cmd_type)

    p = sub.add_parser("bounded", help="boundedness plus top/bottom elements")
    p.add_argument("bunch")
    p.set_defaults(fn=_cmd_bounded)

    p = sub.add_parser("eval", help="evaluate mul/neg/res/cmp on element literals")
    p.add_argument("bunch")
    p.add_argument("--op", required=True, choices=("mul", "neg", "res", "cmp"))
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("table", help="extensional table (finite) or window export")
    p.add_argument("bunch")
    p.add_argument("--limit", type=_int_at_least(1))
    p.add_argument("--format", default="csv", choices=("csv", "json", "dot"))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("decompose", help="decompose a table CSV into a bunch")
    p.add_argument("table")
    p.add_argument("--out", help="write the bunch file here instead of stdout")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("embed-check", help="check an embedding spec between two bunches")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_embed_check)

    p = sub.add_parser("fill-gap", help="insert a witness strictly between two elements")
    p.add_argument("bunch")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_fill_gap)

    p = sub.add_parser("densify", help="separate all pairs of an enumerated prefix")
    p.add_argument("bunch")
    p.add_argument("--prefix", type=_int_at_least(0), required=True)
    p.add_argument("--rounds", type=_int_at_least(0), required=True)
    p.set_defaults(fn=_cmd_densify)

    p = sub.add_parser("enumerate", help="all odd-or-even involutive chain tables of a size")
    p.add_argument("--size", type=_int_at_least(1), required=True)
    p.add_argument("--bound", type=_int_at_least(1), default=10,
                   help="largest size searched (default 10)")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("standardize", help="rational placement CSV of a bounded prefix")
    p.add_argument("bunch")
    p.add_argument("--prefix", type=_int_at_least(2), required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=0)
    p.set_defaults(fn=_cmd_standardize)

    p = sub.add_parser("laws", help="sample-check the chain axioms of a bunch")
    p.add_argument("bunch")
    p.add_argument("--law-samples", type=_int_at_least(0), default=_samples_default(10000))
    p.set_defaults(fn=_cmd_laws)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LayerlatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
