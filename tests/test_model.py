from __future__ import annotations

import ast
import random
from itertools import islice, product
from pathlib import Path

from layerlat import fixtures
from layerlat.chain import Chain
from model import Model

# the package's compilers and transition composition, and the chain
# operations that the model restates under their own names
COMPILED = {"cmp_fn", "op_fn", "inv_fn", "cover_fn", "member_fn", "hom_fn", "hom_compose", "transition"}
RESTATED = {"bunch", "compare", "mul", "negate", "residuum", "zeta", "constants", "enumerate_elements"}


def test_the_model_names_no_compiler_and_no_chain_attribute():
    chain = Chain(fixtures.lz2())
    chain.compare(*chain.constants())  # fills a lazy table
    forbidden = COMPILED | {"Chain"} | {n for n in set(vars(Chain)) | set(vars(chain))
                                        if not n.startswith("__") and n not in RESTATED}
    assert {"_tr", "_same", "_unit_from", "lift", "thresholds", "mul_block"} <= forbidden
    # every identifier model.py binds, reads, imports or reads as an attribute
    nodes = list(ast.walk(ast.parse(Path(__file__).with_name("model.py").read_text())))
    names = {getattr(n, f, None) for n in nodes for f in ("id", "attr", "name", "asname", "arg")}
    names |= {part for n in nodes if isinstance(n, ast.alias) for part in n.name.split(".")}
    assert sorted(names & forbidden) == []


def test_the_model_is_antisymmetric_and_commutative():
    # so the kernel tests decide each unordered pair of the model once
    bunches = [f() for _, f in sorted(fixtures.ALL.items())]
    bunches += [fixtures.random_bunch(random.Random(k), max_layers=4) for k in range(40)]
    for i, b in enumerate(bunches):
        model = Model(b)
        for x, y in product(list(islice(model.enumerate_elements(), 24)), repeat=2):
            assert model.compare(x, y) == -model.compare(y, x), (i, x, y)
            assert model.mul(x, y) == model.mul(y, x), (i, x, y)
        assert model.constants() == Chain(b).constants(), i
