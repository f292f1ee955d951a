"""The three workloads: seeded inputs, timed operations and output checks.

A builder makes a workload's inputs from the seed (this is the set-up that
``setup_s`` times) and returns its operations.  The worker runs them in
order, one at a time, and times each one; it runs them again in rounds, and
``reset`` drops what a round left behind, so every round does the same work.  Each operation has a check, run
untimed right after it, that compares the result with an independent oracle
or with a digest recorded in ``reference.json`` at the commit that defined
the benchmark.

Operations reach the package through module attributes at call time
(``ll.validate``, ``ll.cli.main``), so the tracer's wrappers are the ones
called in a traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import layerlat as ll
import layerlat.cli
import layerlat.embed
import layerlat.fixtures
import layerlat.oracle

# A check returns None when the output is right, KNOWN when it reproduced a
# documented failure exactly, and otherwise a message saying what differs.
KNOWN = "known failure"

# The random bunches of `elements` come from this fixed seed, not from the
# workload seed: their cost varies about 70% from bunch to bunch, so twenty
# bunches drawn per workload seed moved wall_s by up to 20% between seeds.
CORPUS_SEED = 2312


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    label: str  # unique within a pass, e.g. "chain.L512" or a CLI argv
    group: str  # the kind of call, e.g. "validate" or the CLI subcommand
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    reset: Callable[[], None] = field(default=lambda: None)  # forget what a round computed
    close: Callable[[], None] = field(default=lambda: None)


def relabel(b: ll.Bunch, rng: random.Random) -> ll.Bunch:
    """The same bunch with every layer renamed to a seeded fresh label."""
    stem = "".join(rng.choice("abcdefghjkmnpqrsvwxyz") for _ in range(3))
    name = {u: f"{stem}{i}" for i, u in enumerate(b.skeleton)}
    return ll.Bunch(
        tuple(name[u] for u in b.skeleton),
        {name[u]: c for u, c in b.partition.items()},
        {name[u]: g for u, g in b.groups.items()},
        {name[u]: s for u, s in b.subgroups.items()},
        {(name[u], name[v]): h for (u, v), h in b.steps.items()})


def expect(ok: bool, message: str) -> str | None:
    return None if ok else message


# ---------------------------------------------------------------------------
# finite: long skeletons of trivial layers and finite tables

FINITE = {
    "full": {"curve": (64, 128, 256), "validate": 41, "table": 41,
             "densify": (3, 5), "enumerate": (5, 6)},
    "tiny": {"curve": (4, 8), "validate": 9, "table": 9,
             "densify": (3, 2), "enumerate": (3, 4)},
}


def densify_digest(bunch: ll.Bunch, trace) -> str:
    final = ll.Chain(bunch)
    doc = {"bunch": ll.serialize_bunch(bunch),
           "trace": [[r.case_tag, r.inserted_layer, r.inserted_class,
                      ll.format_element(final, r.x), ll.format_element(final, r.y),
                      ll.format_element(final, r.witness)] for r in trace]}
    return sha256(json.dumps(doc, sort_keys=True))


def finite_table(n: int) -> ll.CayleyTable:
    return ll.table_of_chain(ll.Chain(ll.fixtures.finite_bunch(n)))[0]


def all_ok(*verdicts: str | None) -> str | None:
    return next((v for v in verdicts if v is not None), None)


def build_finite(seed: int, scale: str, ref: dict) -> Workload:
    """One operation per Chain of the curve and per enumerated size, and one
    each for validate, table plus roundtrip, and densify.  Each takes well
    under a second, so that a run times each one many times."""
    p = FINITE[scale]
    rng = random.Random(seed)
    ops = []

    for L in p["curve"]:
        b = relabel(ll.fixtures.finite_bunch(2 * L - 1), rng)
        ops.append(Op(f"chain L={L}", "chain",
                      lambda b=b: sum(1 for _ in ll.Chain(b).enumerate_elements()),
                      lambda size, L=L: expect(size == 2 * L - 1,
                                               f"the chain with L={L} has {size} elements")))

    n_val = p["validate"]
    b_val = relabel(ll.fixtures.finite_bunch(n_val), rng)
    ops.append(Op(f"validate n={n_val}", "validate", lambda: ll.validate(b_val),
                  lambda r: expect(r.ok, "validate reports a violation")))

    n_tab = p["table"]
    b_tab = relabel(ll.fixtures.finite_bunch(n_tab), rng)

    def table_roundtrip():
        table = ll.table_of_chain(ll.Chain(b_tab))[0]
        return table, ll.roundtrip_table(table)

    def check_table_roundtrip(r) -> str | None:
        table, witness = r
        return all_ok(
            expect(table.size == n_tab and ll.check_flea_axioms(table).ok,
                   "table is not a lawful chain of the right size"),
            expect(witness.size == n_tab
                   and witness.result.bunch == ll.fixtures.finite_bunch(n_tab),
                   "roundtrip did not recover the finite bunch"))

    ops.append(Op(f"table_of_chain + roundtrip_table n={n_tab}", "table_roundtrip",
                  table_roundtrip, check_table_roundtrip))

    prefix, rounds = p["densify"]
    ops.append(Op(f"densify s3 prefix={prefix} rounds={rounds}", "densify",
                  lambda: ll.densify_driver(ll.Chain(ll.fixtures.s3()), prefix, rounds),
                  lambda r: expect(densify_digest(*r) == ref["finite"]["densify"],
                                   "densify bunch or trace differs from the reference")))

    # one table per size today: the oracle search must find exactly the
    # table of the bunch construction
    for n in p["enumerate"]:
        ops.append(Op(f"enumerate n={n}", "enumerate",
                      lambda n=n: ll.enumerate_finite_chains(n),
                      lambda ts, n=n: expect(ts == [finite_table(n)],
                                             f"enumerate({n}) differs from the table of "
                                             f"finite_bunch({n})")))
    return Workload(ops)


# ---------------------------------------------------------------------------
# elements: short skeletons over Int, Rat and Lex groups

ELEMENTS = {
    "full": {"random": 20, "law_samples": 3000, "cantor": 4000,
             "sup_prefix": 200, "depths": (0, 200), "queries": 24},
    "tiny": {"random": 3, "law_samples": 300, "cantor": 50,
             "sup_prefix": 20, "depths": (0, 5), "queries": 6},
}
SUP_POOL = 48


def element_bunches(scale: str) -> list[tuple[str, ll.Bunch]]:
    rng = random.Random(CORPUS_SEED)
    named = [(k, f()) for k, f in ll.fixtures.ALL.items()]
    named += [(f"random{i}", ll.fixtures.random_bunch(rng, max_layers=4))
              for i in range(ELEMENTS[scale]["random"])]
    return named


def sup_queries() -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(CORPUS_SEED + 1)
    return [(Fraction(rng.randint(1, 96), 96), Fraction(rng.randint(1, 96), 96))
            for _ in range(SUP_POOL)]


def build_elements(seed: int, scale: str, ref: dict) -> Workload:
    p = ELEMENTS[scale]
    rng = random.Random(seed)
    law_seed = rng.randrange(2 ** 32)
    pool = sup_queries()
    picked = rng.sample(range(SUP_POOL), p["queries"])
    ops = []
    chains: dict[str, ll.Chain] = {}
    ok = lambda r: expect(r.ok, "report is not ok")

    for name, b in element_bunches(scale):
        def laws(name=name, b=b):
            chains[name] = ll.Chain(b)
            return ll.check_chain_laws(chains[name], samples=p["law_samples"], seed=law_seed)

        ops.append(Op(f"laws.{name}", "check_chain_laws", laws, ok))
        ops.append(Op(f"embed.{name}", "check_embedding",
                      lambda name=name, b=b: ll.check_embedding(
                          chains[name], chains[name], ll.identity_embedding(b)), ok))
        ops.append(Op(f"recover.{name}", "recover_bunch_samples",
                      lambda name=name: ll.recover_bunch_samples(chains[name]), ok))

    ops.append(Op(f"cantor.zb.p{p['cantor']}", "cantor_map",
                  lambda: ll.cantor_map(ll.Chain(ll.fixtures.zb()), p["cantor"]),
                  lambda pl: expect(sha256(pl.to_csv()) == ref["elements"]["placement"],
                                    "placement CSV differs from the reference")))

    placed: dict[str, Any] = {}

    def sup(i: int, depth: int) -> Fraction:
        if "p" not in placed:
            zb = ll.Chain(ll.fixtures.zb())
            placed["p"] = (zb, ll.cantor_map(zb, p["sup_prefix"]))
        zb, placement = placed["p"]
        return ll.sup_extend(zb, placement, *pool[i], depth)

    for depth in p["depths"]:
        for i in picked:
            expected = Fraction(ref["elements"]["sup"][str(depth)][i])
            ops.append(Op(f"sup_extend.d{depth}.q{i}", "sup_extend",
                          lambda i=i, d=depth: sup(i, d),
                          lambda v, e=expected: expect(v == e, "sup_extend value differs "
                                                                "from the reference")))

    def reset() -> None:
        chains.clear()
        placed.clear()

    return Workload(ops, reset=reset)


# ---------------------------------------------------------------------------
# cli: a seeded batch of CLI calls, each parsing and rebuilding its chain

# element literals per fixture, for eval
FIXTURE_LITERALS = {
    "s3": ["t:e", "u:e", "u:d:e"],
    "zb": ["t:-2", "t:-1", "t:0", "t:1", "t:3", "u:e", "u:d:e"],
    "ze": ["t:-3", "t:-1", "t:0", "t:2", "t:5"],
    "lz": ["t:-2", "t:0", "t:1", "u:-1", "u:0", "u:d:0", "u:d:2"],
    "lz2": ["t:-1", "t:0", "t:3", "u:-2", "u:0", "u:d:0", "u:d:4"],
    "jz": ["t:e", "u:-2", "u:0", "u:1", "u:3"],
}
# strictly ordered pairs of odd fixtures, for fill-gap
FIXTURE_GAPS = {
    "s3": [("u:d:e", "t:e"), ("t:e", "u:e"), ("u:d:e", "u:e")],
    "zb": [("t:-1", "t:2"), ("u:d:e", "t:0"), ("t:1", "u:e")],
    "jz": [("t:e", "u:1"), ("u:-1", "t:e"), ("u:-2", "u:3")],
    "lz": [("t:0", "t:1"), ("u:d:0", "t:0"), ("t:0", "u:0"), ("u:0", "u:1")],
    "lz2": [("t:0", "t:1"), ("t:-1", "u:1"), ("u:0", "u:1")],
}
KNOWN_FAILURE = ("densify", "s3.json", "--prefix", "3", "--rounds", "2")


def finite_files(L: int) -> list[str]:
    """The two finite bunches with L layers: odd (2L-1) and even (2L) size."""
    return [f"f{2 * L - 1}.json", f"f{2 * L}.json"]


def finite_ascending(L: int) -> list[str]:
    """Carrier of the odd finite chain with L layers, in ascending order."""
    return ([f"u{i}:d:e" for i in range(L - 1, 0, -1)] + ["t:e"]
            + [f"u{i}:e" for i in range(1, L)])


def finite_literals(n: int) -> list[str]:
    L = (n + 1) // 2
    lits = finite_ascending(L)
    return lits + ["t:d:e"] if n % 2 == 0 else lits


CLI_SIZES = {
    "full": {
        "validate": (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16, 12, 10, 8, 6),
        "type": (4, 6, 8, 10, 12, 14, 16, 16, 12, 8),
        "eval": (4, 6, 8, 12, 16),
        "table": (4, 8, 12, 16),
        "decompose": (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16, 12, 8),
        "embed": (4, 6, 8, 10, 12, 14, 16, 16),
        "gap": (4, 6, 8, 10, 12, 14, 16, 8, 16),
        "densify": (3, 5),
        "enumerate": (1, 2, 3, 4, 5, 5, 4, 3, 2, 5, 4, 3),
        "standardize": (4, 6, 8, 10, 12, 14, 16, 16, 12, 8),
        "laws": (4, 6, 8, 10, 12, 14, 16, 16, 12, 8),
        "fixtures": tuple(ll.fixtures.ALL),
        "known": 2,
    },
    "tiny": {
        "validate": (3,), "type": (3,), "eval": (3,), "table": (3,),
        "decompose": (3,), "embed": (3,), "gap": (3,), "densify": (3,),
        "enumerate": (3,), "standardize": (3,), "laws": (3,),
        "fixtures": ("s3", "zb"), "known": 1,
    },
}


def cli_slots(scale: str) -> list[list[list[str]]]:
    """The batch as slots; each slot lists interchangeable argv variants of
    equal cost, and the workload seed picks one variant per slot."""
    s = CLI_SIZES[scale]
    fixtures = s["fixtures"]
    rng = random.Random(CORPUS_SEED + 2)
    slots: list[list[list[str]]] = []
    add = slots.append

    for k in fixtures:
        add([["validate", f"{k}.json"]])
    for L in s["validate"]:
        add([["validate", f] for f in finite_files(L)])
    for cmd in ("type", "bounded"):
        for k in fixtures:
            add([[cmd, f"{k}.json"]])
        for L in s["type"]:
            add([[cmd, f] for f in finite_files(L)])

    for k in fixtures:
        lits = FIXTURE_LITERALS[k]
        for op in ("mul", "neg", "res", "cmp"):
            add([["eval", f"{k}.json", "--op", op, "--lhs", a]
                 + ([] if op == "neg" else ["--rhs", b])
                 for a, b in (rng.sample(lits, 2) for _ in range(4))])
    for L in s["eval"]:
        for op in ("mul", "res", "cmp"):
            variants = []
            for f in finite_files(L):
                lits = finite_literals(int(f[1:-5]))
                variants += [["eval", f, "--op", op, "--lhs", a, "--rhs", b]
                             for a, b in (rng.sample(lits, 2) for _ in range(2))]
            add(variants)
        add([["eval", f, "--op", "neg", "--lhs", rng.choice(finite_literals(int(f[1:-5])))]
             for f in finite_files(L)])

    for L in s["table"]:
        for fmt in ("csv", "json", "dot"):
            add([["table", f, "--format", fmt] for f in finite_files(L)])
    for k in fixtures:
        if k not in ("s3",):
            add([["table", f"{k}.json", "--limit", str(lim)] for lim in (8, 12)])
    for L in s["decompose"]:
        add([["decompose", f"t{f[1:-5]}.csv"] for f in finite_files(L)])

    for k in fixtures:
        add([["embed-check", f"{k}.json", f"{k}.json", f"id_{k}.json"]])
    for L in s["embed"]:
        add([["embed-check", f, f, f"id_{f[:-5]}.json"] for f in finite_files(L)])

    for k in fixtures:
        if k in FIXTURE_GAPS:
            add([["fill-gap", f"{k}.json", "--x", x, "--y", y] for x, y in FIXTURE_GAPS[k]])
    for L in s["gap"]:
        asc = finite_ascending(L)
        pairs = [sorted(rng.sample(range(len(asc)), 2)) for _ in range(3)]
        add([["fill-gap", f"f{2 * L - 1}.json", "--x", asc[i], "--y", asc[j]] for i, j in pairs])

    for k in fixtures:
        if k in ("s3", "zb", "jz", "lz"):
            add([["densify", f"{k}.json", "--prefix", str(pre), "--rounds", "1"] for pre in (3, 4)])
    for L in s["densify"]:
        add([["densify", f"f{2 * L - 1}.json", "--prefix", str(pre), "--rounds", "1"] for pre in (3, 4)])
    for _ in range(s["known"]):
        add([list(KNOWN_FAILURE)])

    for n in s["enumerate"]:
        add([["enumerate", "--size", str(n)], ["enumerate", "--size", str(n), "--bound", "7"]])

    for k in fixtures:
        if k in ("s3", "zb"):
            add([["standardize", f"{k}.json", "--prefix", str(pre), "--depth", str(d)]
                 for pre in (16, 32) for d in (0, 4)])
    for L in s["standardize"]:
        add([["standardize", f, "--prefix", str(min(2 * L - 1, 12)), "--depth", str(d)]
             for f in finite_files(L) for d in (0, 4)])

    for k in fixtures:
        add([["--seed", str(sd), "laws", f"{k}.json", "--law-samples", "1000"] for sd in range(3)])
    for L in s["laws"]:
        add([["--seed", str(sd), "laws", f, "--law-samples", "1000"]
             for f in finite_files(L) for sd in range(2)])
    return slots


def cli_files(scale: str) -> dict[str, str]:
    """Every input file the batch can name, by file name."""
    s = CLI_SIZES[scale]
    bunches = {k: ll.fixtures.ALL[k]() for k in s["fixtures"]}
    layers = {L for key in ("validate", "type", "eval", "table", "embed", "gap",
                            "densify", "standardize", "laws") for L in s[key]}
    for L in sorted(layers | set(s["decompose"])):
        for n in (2 * L - 1, 2 * L):
            bunches[f"f{n}"] = ll.fixtures.finite_bunch(n)
    files = {}
    for L in s["decompose"]:
        for n in (2 * L - 1, 2 * L):
            files[f"t{n}.csv"] = ll.oracle.format_table_csv(finite_table(n))
    for name, b in bunches.items():
        files[f"{name}.json"] = ll.serialize_bunch(b)
        files[f"id_{name}.json"] = ll.embed.serialize_embedding_spec(ll.identity_embedding(b), b)
    return files


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def subcommand(argv: list[str]) -> str:
    return argv[2] if argv[0] == "--seed" else argv[0]


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ll.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def check_known_failure(result: tuple[int, str, str], known: dict) -> str | None:
    """The densify --rounds 2 call exits 1 at the reference commit because
    its trace is formatted with the pre-insertion chain.  Accept that exact
    failure (as KNOWN), or a corrected output carrying the reference bunch
    and insertions."""
    code, out, err = result
    if code == known["exit"] and sha256(out) == known["stdout"] and known["stderr"] in err:
        return KNOWN
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        doc = json.loads(out)
        insertions = [[r["case_tag"], r["inserted_layer"]] for r in doc["trace"]]
        bunch_digest = sha256(json.dumps(doc["bunch"], sort_keys=True))
    except (ValueError, KeyError, TypeError):
        return "densify output is not the documented JSON"
    return expect(bunch_digest == known["bunch"] and insertions == known["insertions"],
                  "densify bunch or insertions differ from the reference")


def build_cli(seed: int, scale: str, ref: dict, workdir: Path) -> Workload:
    rng = random.Random(seed)
    batch = [rng.choice(slot) for slot in cli_slots(scale)]
    rng.shuffle(batch)
    files = cli_files(scale)
    inputs = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
    for name, text in files.items():
        (inputs / name).write_text(text)
    calls, known = ref["cli"]["calls"], ref["cli"]["known"]

    def check(key: str, result: tuple[int, str, str]) -> str | None:
        if key in known:
            return check_known_failure(result, known[key])
        if key not in calls:
            return "call has no reference"
        code, out, err = result
        exit_ref, digest = calls[key]
        if code != exit_ref:
            return f"exit {code}, reference {exit_ref}: {err.strip()[:200]}"
        return expect(sha256(out) == digest, "stdout differs from the reference")

    ops = []
    for argv in batch:
        key = call_key(argv)
        paths = [str(inputs / a) if a in files else a for a in argv]
        ops.append(Op(key, subcommand(argv), lambda paths=paths: cli_call(paths),
                      lambda r, key=key: check(key, r)))
    return Workload(ops, close=lambda: shutil.rmtree(inputs, ignore_errors=True))
