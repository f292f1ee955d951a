from __future__ import annotations

import copy
import csv
import argparse
import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from layerlat import cli, fixtures, ogroup as og, report as report_module
from layerlat.bunch import Bunch, bunch_from_json, parse_bunch, serialize_bunch
from layerlat.chain import Chain, check_chain_laws, parse_element
from layerlat.decompose import table_of_chain
from layerlat.densify import insert_above
from layerlat.embed import EmbeddingSpec, identity_embedding, serialize_embedding_spec
from layerlat.errors import ParseError
from layerlat.oracle import format_table_csv
from layerlat.standardize import cantor_map


def run(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def write_s3(tmp_path) -> str:
    path = tmp_path / "s3.json"
    path.write_text(serialize_bunch(fixtures.s3()))
    return str(path)


def test_densify_trace_is_formatted_with_the_final_chain(tmp_path, capsys):
    # the second round separates pairs whose endpoints were inserted in the
    # first round, so the trace names layers the input bunch lacks
    code, out = run(["densify", write_s3(tmp_path), "--prefix", "3", "--rounds", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    final = Chain(bunch_from_json(doc["bunch"]))
    assert len(doc["trace"]) == 6
    for record in doc["trace"]:
        x, y, w = (parse_element(final, record[k]) for k in ("x", "y", "witness"))
        assert final.compare(x, w) == og.LT
        assert final.compare(w, y) == og.LT


def test_fill_gap_witness_lies_in_the_extended_bunch(tmp_path, capsys):
    code, out = run(["fill-gap", write_s3(tmp_path), "--x", "t:e", "--y", "u:e"], capsys)
    assert code == 0
    doc = json.loads(out)
    extended = Chain(bunch_from_json(doc["bunch"]))
    w = parse_element(extended, doc["witness"])
    assert w.layer == doc["inserted_layer"]
    assert extended.compare(parse_element(extended, "t:e"), w) == og.LT
    assert extended.compare(w, parse_element(extended, "u:e")) == og.LT


def cli_run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``layerlat argv`` as the interpreter
    would report them: an uncaught exception prints its traceback and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_exit(argv) -> tuple[int, str]:
    code, _, err = cli_run(argv)
    return code, err


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("bunches")
    files = {}
    for name in ("s3", "zb"):
        path = root / f"{name}.json"
        path.write_text(serialize_bunch(fixtures.ALL[name]()))
        files[name] = str(path)
    files["g3"] = str(root / "g3.json")
    (root / "g3.json").write_text(G3_BUNCH)
    return files


@pytest.mark.parametrize("argv", [
    ["enumerate", "--size", "0"],
    ["enumerate", "--size", "-3"],
    ["enumerate", "--size", "3", "--bound", "0"],
    ["--samples", "-5", "validate", "{s3}"],
    ["table", "{zb}", "--limit", "0"],
    ["standardize", "{zb}", "--prefix", "1"],
    ["standardize", "{zb}", "--prefix", "4", "--depth", "-1"],
    ["densify", "{s3}", "--prefix", "3", "--rounds", "-1"],
    ["densify", "{s3}", "--prefix", "-1", "--rounds", "1"],
    ["laws", "{zb}", "--law-samples", "-1"],
    ["enumerate", "--size", "three"],
])
def test_bad_numeric_options_are_usage_errors(argv, fixture_files):
    code, err = cli_exit([a.format(**fixture_files) for a in argv])
    assert code == 2
    assert "usage:" in err and "Traceback" not in err


def test_enumerate_default_bound_is_ten():
    assert cli_exit(["enumerate", "--size", "10"])[0] == 0
    code, err = cli_exit(["enumerate", "--size", "11"])
    assert code == 1 and "bound 10" in err


SMALL = st.integers(-3, 6)


@st.composite
def numeric_argv(draw) -> list[str]:
    """A subcommand on s3 or zb with every integer option drawn, in or out
    of range; the upper ends keep each call to milliseconds."""
    f = "{" + draw(st.sampled_from(["s3", "zb"])) + "}"
    a, b = str(draw(SMALL)), str(draw(SMALL))
    rounds, law_samples = str(draw(st.integers(-2, 2))), str(draw(st.integers(-3, 300)))
    return draw(st.sampled_from([
        ["--samples", a, "validate", f],
        ["--samples", a, "type", f],
        ["table", f, "--limit", a],
        ["densify", f, "--prefix", a, "--rounds", rounds],
        ["standardize", f, "--prefix", a, "--depth", b],
        ["laws", f, "--law-samples", law_samples],
        ["enumerate", "--size", a, "--bound", b],
    ]))


@settings(deadline=None)
@given(numeric_argv())
def test_numeric_options_never_end_in_a_traceback(fixture_files, argv):
    code, err = cli_exit([a.format(**fixture_files) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- documents and literals ----------------------------------------------------


def test_oversize_element_literal_is_a_parse_error(fixture_files):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 700 if limit else 5000)
    code, err = cli_exit(["eval", fixture_files["zb"], "--op", "neg", "--lhs", f"t:{digits}"])
    assert "Traceback" not in err
    if limit:
        assert code == 1 and "digit limit" in err
    else:
        assert code == 0


def nested_lex(depth: int) -> str:
    return '{"lex": [' * depth + '"int"' + ', "int"]}' * depth


def test_deeply_nested_bunch_is_a_parse_error(tmp_path):
    text = serialize_bunch(fixtures.zb())
    assert '"t": "int"' in text
    for depth in (3000, og.MAX_NESTING // 2 + 1):
        path = tmp_path / f"deep{depth}.json"
        path.write_text(text.replace('"t": "int"', f'"t": {nested_lex(depth)}', 1))
        code, err = cli_exit(["validate", str(path)])
        assert code == 1 and "Traceback" not in err
        assert "nests" in err


def test_deeply_nested_embedding_spec_is_a_parse_error(fixture_files, tmp_path):
    zb = fixtures.zb()
    doc = json.loads(serialize_embedding_spec(identity_embedding(zb), zb))
    for depth in (3000, og.MAX_NESTING + 1):
        doc["layer_maps"]["t"] = "@deep"
        path = tmp_path / f"spec{depth}.json"
        path.write_text(json.dumps(doc).replace('"@deep"', "[" * depth + "]" * depth))
        code, err = cli_exit(["embed-check", fixture_files["zb"], fixture_files["zb"], str(path)])
        assert code == 1 and "Traceback" not in err
        assert "nests" in err


def test_standardize_writes_numbers_past_the_digit_limit(fixture_files, capsys):
    # Midpoint denominators reach 2**2200 at this prefix, past 640 digits,
    # the lowest int-to-string limit the interpreter accepts.  At the default
    # limit of 4300 digits the same happens from about --prefix 28600, which
    # takes seconds to write.
    expected = sorted(cantor_map(Chain(fixtures.zb()), 4400)._q.values())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(["standardize", fixture_files["zb"], "--prefix", "4400"], capsys)
        values = [Fraction(int(Decimal(num)), int(Decimal(den)))
                  for _, num, den in csv.reader(io.StringIO(out))]
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert values == expected
    assert len(str(Decimal(values[-2].denominator))) > 640


def one_layer_file(tmp_path, name: str, group: og.OGroup) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_bunch(Bunch(("t",), {"t": "I"}, {"t": group},
                                          {"t": og.whole(group)}, {})))
    return str(path)


def test_eval_writes_results_past_the_digit_limit(fixture_files, tmp_path):
    # 640 digits is the lowest int-to-string limit the interpreter accepts;
    # each literal stays below it, and each product's numbers go past it
    big = int("9" * 640)
    d1, d2 = 10 ** 400 + 1, 10 ** 400 + 3
    q = Fraction(1, d1) + Fraction(1, d2)
    cases = [
        (fixture_files["zb"], f"t:{big}", f"t:{big}", f"t:{Decimal(2 * big)}"),
        (one_layer_file(tmp_path, "rat", og.RAT), f"t:1/{d1}", f"t:1/{d2}",
         f"t:{Decimal(q.numerator)}/{Decimal(q.denominator)}"),
        (one_layer_file(tmp_path, "lex", og.Lex(og.INT, og.RAT)), f"t:({big},1/{d1})",
         f"t:({big},1/{d2})", f"t:({Decimal(2 * big)},{Decimal(q.numerator)}/{Decimal(q.denominator)})"),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        results = [cli_run(["eval", path, "--op", "mul", "--lhs", lhs, "--rhs", rhs])
                   for path, lhs, rhs, _ in cases]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(str(q.denominator)) > 640
    for (code, out, err), (*_, expected) in zip(results, cases):
        assert (code, out, err) == (0, expected + "\n", "")


def test_dot_labels_escape_backslashes_and_quotes(tmp_path):
    # a layer label may hold " and \, which a quoted DOT label spells \" and \\
    odd = 'a"b\\c'
    path = tmp_path / "quoted.json"
    path.write_text(serialize_bunch(Bunch(
        (odd, "u"), {odd: "I", "u": "I"}, {odd: og.TRIVIAL, "u": og.TRIVIAL},
        {odd: og.whole(og.TRIVIAL), "u": og.whole(og.TRIVIAL)},
        {(odd, "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)})))
    assert cli_run(["table", str(path), "--format", "dot"]) == (0, """\
digraph chain {
  rankdir=BT;
  n0 [label="u:d:e"];
  n1 [label="a\\"b\\\\c:d:e"];
  n2 [label="a\\"b\\\\c:e"];
  n3 [label="u:e"];
  n0 -> n1;
  n1 -> n2;
  n2 -> n3;
}
""", "")


def test_unreadable_input_files_are_errors(tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, latin, tmp_path / "missing.json"):
        code, err = cli_exit(["validate", str(path)])
        assert code == 1 and err.startswith("error: ")


# JSON text for values that json.dumps cannot or will not write
RAW_VALUES = {
    "@big": "9" * 5000,
    "@negbig": "-" + "7" * 5000,
    "@deep": "[" * 3000 + "]" * 3000,
    "@deep_lex": nested_lex(2000),
    "@lex_at_limit": nested_lex(og.MAX_NESTING // 2),
    "@lex_past_limit": nested_lex(og.MAX_NESTING),
}
NAMES = ["int", "rat", "trivial", "unit", "id", "whole", "first_zero", "int_in_rat",
         "int_to_rat", "inject_first", "project_first", "O", "I", "J", "t", "u",
         "t->u", "lex", "compose", "scale_int", "int_multiples", "skeleton", "steps"]
VALUES = st.recursive(
    st.one_of(st.booleans(), st.none(), st.integers(-3, 3), st.integers(-10**40, 10**40),
              st.floats(), st.text(max_size=4), st.sampled_from(NAMES),
              st.sampled_from(sorted(RAW_VALUES))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(NAMES), inner, max_size=2)),
    max_leaves=4)


def doc_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from doc_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from doc_paths(value, prefix + (i,))


SAME_KIND = {  # the names a bunch document gives a group, a subgroup or a step hom
    "groups": ["trivial", "int", "rat", {"lex": ["int", "int"]}, {"lex": ["int", "rat"]}],
    "subgroups": ["whole", "int_in_rat", "first_zero", {"int_multiples": 2}],
    "steps": ["unit", "id", "int_to_rat", "inject_first", "project_first", {"scale_int": 2}],
}


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values replaced, keys or items deleted, keys
    or items added, or a group, subgroup or step swapped for another name of
    its kind, which keeps the keys consistent; returned as JSON text."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        fields = [f for f in SAME_KIND
                  if isinstance(doc, dict) and isinstance(doc.get(f), dict) and doc[f]]
        if fields and draw(st.booleans()):
            field = draw(st.sampled_from(fields))
            key = draw(st.sampled_from(sorted(doc[field])))
            # a copy, since a later mutation may edit it in place
            doc[field][key] = copy.deepcopy(draw(st.sampled_from(SAME_KIND[field])))
            continue
        path = draw(st.sampled_from(list(doc_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        value = draw(VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(NAMES))] = value
        else:
            parent.append(value)
    text = json.dumps(doc)
    for token, raw in RAW_VALUES.items():
        text = text.replace(json.dumps(token), raw)
    return text


FIXTURE_DOCS = {k: json.loads(serialize_bunch(f())) for k, f in fixtures.ALL.items()}
SPEC_DOCS = {k: json.loads(serialize_embedding_spec(identity_embedding(f()), f()))
             for k, f in fixtures.ALL.items()}


@st.composite
def document_calls(draw):
    """A subcommand on a mutated fixture bunch, or embed-check with a mutated
    identity spec; the files are written by the test."""
    name = draw(st.sampled_from(sorted(FIXTURE_DOCS)))
    if draw(st.booleans()):
        spec = draw(mutated(SPEC_DOCS[name]))
        return name, serialize_bunch(fixtures.ALL[name]()), spec, \
            ["embed-check", "{bunch}", "{bunch}", "{spec}"]
    bunch = draw(mutated(FIXTURE_DOCS[name]))
    spec = json.dumps(SPEC_DOCS[name])
    argv = draw(st.sampled_from([
        ["validate", "{bunch}"],
        ["type", "{bunch}"],
        ["bounded", "{bunch}"],
        ["table", "{bunch}", "--limit", "4"],
        ["laws", "{bunch}", "--law-samples", "40"],
        ["eval", "{bunch}", "--op", "neg", "--lhs", "t:0"],
        ["standardize", "{bunch}", "--prefix", "5", "--depth", "2"],
        ["densify", "{bunch}", "--prefix", "3", "--rounds", "1"],
        ["embed-check", "{bunch}", "{bunch}", "{spec}"],
    ]))
    return name, bunch, spec, argv


@settings(deadline=None, max_examples=150)
@given(document_calls())
def test_mutated_documents_never_end_in_a_traceback(tmp_path_factory, call):
    name, bunch, spec, argv = call
    root = tmp_path_factory.mktemp("docs", numbered=True)
    files = {"bunch": root / f"{name}.json", "spec": root / f"id_{name}.json"}
    files["bunch"].write_text(bunch)
    files["spec"].write_text(spec)
    code, err = cli_exit(["--samples", "20"] + [a.format(**files) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


BROKEN_DOCS = [  # each would be a structurally broken bunch past the parser
    {"skeleton": ["t", "u", "t"], "partition": {"t": "O", "u": "I"},
     "groups": {"t": "trivial", "u": "trivial"}, "subgroups": {"u": "whole"},
     "steps": {"t->u": "unit", "u->t": "unit"}},
    {"skeleton": ["t", "u"], "partition": {"t": "O", "u": "I"}, "groups": {"t": "int", "u": "int"},
     "subgroups": {"u": "whole"}, "steps": {"t->u": "int_to_rat"}},
    {"skeleton": ["a->b", "a", "b->a"], "partition": {"a->b": "O", "a": "I", "b->a": "I"},
     "groups": {"a->b": "trivial", "a": "trivial", "b->a": "trivial"},
     "subgroups": {"a": "whole", "b->a": "whole"}, "steps": {"a->b->a": "unit"}},
]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(FIXTURE_DOCS)).flatmap(lambda name: mutated(FIXTURE_DOCS[name])))
@example(json.dumps(BROKEN_DOCS[0]))
@example(json.dumps(BROKEN_DOCS[1]))
@example(json.dumps(BROKEN_DOCS[2]))
def test_a_mutated_document_parses_or_raises_a_parse_error(text):
    # the parser names every structural defect by its field, so the
    # constructor's TypeMismatch is a backstop that no CLI input reaches
    try:
        b = parse_bunch(text)
    except ParseError:
        return
    assert isinstance(b, Bunch)


# -- pinned renders ------------------------------------------------------------
# The exact stdout of validate, embed-check and laws, recorded as literals so
# that the text is pinned independently of the report code that renders it.

OK_VALIDATE = """\
ok        structure    bunch [structural]
ok        G1           t [structural]
ok        D1           all layers [structural]
ok        G3           t->u [{g3}]
ok        D2           t->t->t [sampled]
ok        D2           t->t->u [sampled]
ok        D2           t->u->u [sampled]
ok        D2           u->u->u [sampled]
ok (8 checks, 12 samples per sampled clause)
"""

# the identity step misses the even-multiples subgroup at 1 (G3)
G3_BUNCH = serialize_bunch(Bunch(("t", "u"), {"t": "O", "u": "I"},
                                 {"t": og.INT, "u": og.INT}, {"u": og.int_multiples(2)},
                                 {("t", "u"): og.identity(og.INT)}))

G3_VALIDATE = """\
ok        structure    bunch [structural]
ok        G1           t [structural]
ok        D1           all layers [structural]
VIOLATION G3           t->u -- 1 maps outside the subgroup [sampled]
ok        D2           t->t->t [sampled]
ok        D2           t->t->u [sampled]
ok        D2           t->u->u [sampled]
ok        D2           u->u->u [sampled]
FAIL (8 checks, 12 samples per sampled clause)
"""

G1_VALIDATE = """\
ok        structure    bunch [structural]
VIOLATION G1           u -- class O is reserved for the least layer [structural]
ok        D1           all layers [structural]
ok        D2           t->t->t [sampled]
ok        D2           t->t->u [sampled]
ok        D2           t->u->u [sampled]
ok        D2           u->u->u [sampled]
FAIL (7 checks, 12 samples per sampled clause)
"""

OK_EMBED = """\
ok   skeleton-order     skeleton [proved]
ok   least-element      t [proved]
ok   partition          t [proved]
ok   partition          u [proved]
ok   layer-group-hom    t [{t}]
ok   layer-group-hom    u [{u}]
ok   transition-square  t->t [{t}]
ok   transition-square  t->u [{t}]
ok   transition-square  u->u [{u}]
ok   subgroup-both-ways u [{u}]
ok   element-order      carrier [{carrier}]
ok   element-product    carrier [{carrier}]
ok   element-constants  t, f [proved]
embedding ok
"""

CROSSED_EMBED = """\
FAIL skeleton-order     skeleton -- image positions are not strictly ascending [proved]
FAIL least-element      t -- least layer maps to 'u' [proved]
FAIL partition          t -- class O maps onto class I [proved]
FAIL partition          u -- class I maps onto class O [proved]
ok   layer-group-hom    t [proved]
ok   layer-group-hom    u [proved]
ok   transition-square  t->t [proved]
FAIL transition-square  t->u -- image layers are not skeleton-ordered [proved]
ok   transition-square  u->u [proved]
FAIL subgroup-both-ways u -- image layer carries no subgroup [proved]
FAIL element-order      carrier -- order not preserved at (ChainElement(layer='t', g=e, \
dotted=False), ChainElement(layer='u', g=e, dotted=False)) [proved]
FAIL element-product    carrier -- product not preserved at (ChainElement(layer='t', g=e, \
dotted=False), ChainElement(layer='u', g=e, dotted=False)) [proved]
FAIL element-constants  t, f -- constants not preserved [proved]
embedding FAILED
"""

COLLAPSE_EMBED = """\
ok   skeleton-order     skeleton [proved]
ok   least-element      t [proved]
ok   partition          t [proved]
FAIL layer-group-hom    t -- not strictly order-preserving [tested]
ok   transition-square  t->t [tested]
FAIL unit-cover         t -- cover of the unit maps to 0, expected 1 [proved]
FAIL element-order      carrier -- order not preserved at (ChainElement(layer='t', g=0, \
dotted=False), ChainElement(layer='t', g=1, dotted=False)) [tested]
ok   element-product    carrier [tested]
FAIL element-constants  t, f -- constants not preserved [proved]
embedding FAILED
"""

DOUBLE_EMBED = """\
ok   skeleton-order     skeleton [proved]
ok   least-element      t [proved]
ok   partition          t [proved]
ok   partition          u [proved]
ok   layer-group-hom    t [tested]
ok   layer-group-hom    u [tested]
ok   transition-square  t->t [tested]
ok   transition-square  t->u [tested]
ok   transition-square  u->u [tested]
FAIL subgroup-both-ways u -- membership not reflected at 1 [tested]
ok   element-order      carrier [tested]
FAIL element-product    carrier -- product not preserved at (ChainElement(layer='u', g=0, \
dotted=True), ChainElement(layer='u', g=1, dotted=False)) [tested]
ok   element-constants  t, f [proved]
embedding FAILED
"""

OK_LAWS = """\
ok   totality       300 samples
ok   commutativity  300 samples
ok   associativity  300 samples
ok   unit           {n} samples
ok   monotonicity   300 samples
ok   adjointness    300 samples
ok   involution     {n} samples
ok   falsum-shape   {n} samples
"""


@pytest.fixture(scope="module")
def render_files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("renders")
    s3, ze, lz2 = fixtures.s3(), fixtures.ze(), fixtures.lz2()
    trivial = og.identity(og.TRIVIAL)
    docs = {
        "g3": G3_BUNCH,
        "g1": serialize_bunch(Bunch(("t", "u"), {"t": "O", "u": "O"},
                                    {"t": og.TRIVIAL, "u": og.TRIVIAL}, {},
                                    {("t", "u"): og.unit_map(og.TRIVIAL, og.TRIVIAL)})),
        "ze": serialize_bunch(ze),
        "s3_above": serialize_bunch(insert_above(s3, "u").new_bunch),
        "crossed": serialize_embedding_spec(
            EmbeddingSpec({"t": "u", "u": "t"}, {"t": trivial, "u": trivial}), s3),
        "collapse": serialize_embedding_spec(
            EmbeddingSpec({"t": "t"}, {"t": og.unit_map(og.INT, og.INT)}), ze),
        "double": serialize_embedding_spec(
            EmbeddingSpec({"t": "t", "u": "u"}, {"t": og.scale_int(2), "u": og.scale_int(2)}),
            lz2),
    }
    for name in ("s3", "zb", "lz2"):
        b = fixtures.ALL[name]()
        docs[name] = serialize_bunch(b)
        docs[f"id_{name}"] = serialize_embedding_spec(identity_embedding(b), b)
    files = {}
    for name, text in docs.items():
        path = root / f"{name}.json"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("argv, code, expected", [
    (["validate", "{s3}"], 0, OK_VALIDATE.format(g3="structural")),
    (["validate", "{zb}"], 0, OK_VALIDATE.format(g3="structural")),
    (["validate", "{lz2}"], 0, OK_VALIDATE.format(g3="sampled")),
    (["validate", "{g3}"], 1, G3_VALIDATE),
    (["validate", "{g1}"], 1, G1_VALIDATE),
    (["embed-check", "{s3}", "{s3}", "{id_s3}"], 0,
     OK_EMBED.format(t="proved", u="proved", carrier="proved")),
    (["embed-check", "{zb}", "{zb}", "{id_zb}"], 0,
     OK_EMBED.format(t="tested", u="proved", carrier="tested")),
    (["embed-check", "{lz2}", "{lz2}", "{id_lz2}"], 0,
     OK_EMBED.format(t="tested", u="tested", carrier="tested")),
    (["embed-check", "{s3}", "{s3_above}", "{crossed}"], 1, CROSSED_EMBED),
    (["embed-check", "{ze}", "{ze}", "{collapse}"], 1, COLLAPSE_EMBED),
    (["embed-check", "{lz2}", "{lz2}", "{double}"], 1, DOUBLE_EMBED),
    (["laws", "{s3}", "--law-samples", "300"], 0, OK_LAWS.format(n=3)),
    (["laws", "{zb}", "--law-samples", "300"], 0, OK_LAWS.format(n=48)),
    (["laws", "{lz2}", "--law-samples", "300"], 0, OK_LAWS.format(n=48)),
], ids=["validate-s3", "validate-zb", "validate-lz2", "validate-g3", "validate-g1",
        "embed-s3", "embed-zb", "embed-lz2", "embed-crossed", "embed-collapse", "embed-double",
        "laws-s3", "laws-zb", "laws-lz2"])
def test_report_renders_are_pinned(render_files, capsys, argv, code, expected):
    assert run(["--samples", "12"] + [a.format(**render_files) for a in argv], capsys) \
        == (code, expected)


@pytest.mark.parametrize("argv, rejected, expected", [
    (["type", "{g3}"], "g3", G3_VALIDATE),
    (["eval", "{g1}", "--op", "neg", "--lhs", "t:e"], "g1", G1_VALIDATE),
    (["embed-check", "{s3}", "{g3}", "{id_s3}"], "g3", G3_VALIDATE),
], ids=["type-g3", "eval-g1", "embed-dst-g3"])
def test_a_rejected_bunch_renders_its_validation_report(render_files, argv, rejected, expected):
    assert cli_run(["--samples", "12"] + [a.format(**render_files) for a in argv]) \
        == (1, "", f"error: bunch {render_files[rejected]} does not validate:\n{expected}")


def test_failing_law_renders_are_pinned():
    zb = Chain(fixtures.zb())
    zb.negate = lambda x: x
    assert check_chain_laws(zb, samples=300, seed=3).render() == """\
ok   totality       300 samples
ok   commutativity  300 samples
ok   associativity  300 samples
ok   unit           48 samples
ok   monotonicity   300 samples
FAIL adjointness    300 samples -- x=ChainElement(layer='t', g=23, dotted=False), \
v=ChainElement(layer='t', g=0, dotted=False), z=ChainElement(layer='t', g=-20, dotted=False)
ok   involution     48 samples
ok   falsum-shape   48 samples"""
    jz = Chain(fixtures.jz())
    compare = jz.compare
    jz.compare = lambda x, y: -compare(x, y) if x.layer != y.layer else compare(x, y)
    assert check_chain_laws(jz, samples=300, seed=3).render() == """\
FAIL totality       300 samples -- transitivity broken at ChainElement(layer='u', g=4, \
dotted=False), ChainElement(layer='t', g=e, dotted=False), ChainElement(layer='u', g=-15, \
dotted=False)
ok   commutativity  300 samples
ok   associativity  300 samples
ok   unit           48 samples
FAIL monotonicity   300 samples -- ChainElement(layer='u', g=6, dotted=False) <= \
ChainElement(layer='t', g=e, dotted=False) but products reversed with ChainElement(layer='u', \
g=15, dotted=False)
FAIL adjointness    300 samples -- x=ChainElement(layer='u', g=2, dotted=False), \
v=ChainElement(layer='u', g=19, dotted=False), z=ChainElement(layer='t', g=e, dotted=False)
ok   involution     48 samples
ok   falsum-shape   48 samples"""


# -- parser cache, argument checks and LAYERLAT_SAMPLES ------------


@pytest.fixture
def cold_parser():
    """Start from an empty parser cache, and keep no parser built under a
    test's patches for the tests after it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["laws", "--help"],
    ["validate", "{s3}"],
    ["enumerate", "--size", "2"],
    ["--samples", "3", "eval", "{zb}", "--op", "neg", "--lhs", "t:1"],
])
def test_a_warm_call_builds_no_parser(monkeypatch, cold_parser, fixture_files, argv):
    # a cold call builds the parser; the same call again in the same process
    # builds none
    counts = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        counts[-1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        counts.append(0)
        code, _, _ = cli_run([a.format(**fixture_files) for a in argv])
        assert code == 0
    assert counts[0] > 0 and counts[1] == 0


def test_a_warm_parser_answers_every_call_as_a_cold_one(monkeypatch, cold_parser, fixture_files,
                                                        tmp_path):
    # one process runs a mixed sequence on one cached parser; each call must
    # give what it gives from an empty cache, as in a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    s3, zb = fixture_files["s3"], fixture_files["zb"]
    table, spec = tmp_path / "f5.csv", tmp_path / "id_s3.json"
    table.write_text(format_table_csv(table_of_chain(Chain(fixtures.finite_bunch(5)))[0]))
    spec.write_text(serialize_embedding_spec(identity_embedding(fixtures.s3()), fixtures.s3()))
    first = [
        ["validate", s3],
        ["type", s3],
        ["bounded", zb],
        ["eval", zb, "--op", "mul", "--lhs", "t:1", "--rhs", "t:2"],
        ["table", s3, "--format", "json"],
        ["decompose", str(table)],
        ["--samples", "20", "embed-check", s3, s3, str(spec)],
        ["fill-gap", s3, "--x", "t:e", "--y", "u:e"],
        ["densify", s3, "--prefix", "3", "--rounds", "1"],
        ["enumerate", "--size", "3"],
        ["standardize", zb, "--prefix", "6", "--depth", "2"],
        ["laws", s3, "--law-samples", "50"],
    ]
    calls = [(None, argv) for argv in first] + [
        (None, ["laws", "--help"]),
        (None, ["--seed", "x", "laws", "f.json"]),
        (None, ["bogus"]),
        ("abc", ["validate", s3]),
        ("7", ["laws", zb]),
    ] + [(None, argv) for argv in first]

    def call(raw, argv):
        if raw is None:
            monkeypatch.delenv("LAYERLAT_SAMPLES", raising=False)
        else:
            monkeypatch.setenv("LAYERLAT_SAMPLES", raw)
        return cli_run(argv)

    warm = [call(raw, argv) for raw, argv in calls]
    cold = []
    for raw, argv in calls:
        cli._parser.cache_clear()
        cold.append(call(raw, argv))
    assert warm == cold
    assert [code for code, _, _ in warm[:len(first)]] == [0] * len(first)
    assert warm[-len(first):] == warm[:len(first)]
    assert warm[len(first) + 3][2].startswith("layerlat: error: LAYERLAT_SAMPLES: ")
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["type", "{s3}"],
    ["bounded", "{zb}"],
    ["eval", "{zb}", "--op", "neg", "--lhs", "t:1"],
    ["laws", "{s3}", "--law-samples", "20"],
    ["type", "{g3}"],  # rejected: the report is expanded from the same chain
])
def test_a_call_builds_one_chain_per_bunch(monkeypatch, fixture_files, argv):
    built = count_chain_builds(monkeypatch)
    code, _, _ = cli_run([a.format(**fixture_files) for a in argv])
    assert code == (1 if "{g3}" in argv else 0) and len(built) == 1


def count_chain_builds(monkeypatch) -> list[Bunch]:
    """Record the bunch of every `Chain` built from now on."""
    built = []
    init = Chain.__init__

    def counting_init(self, bunch):
        built.append(bunch)
        init(self, bunch)

    monkeypatch.setattr(Chain, "__init__", counting_init)
    return built


# stdout of `densify s3.json --prefix 3 --rounds 8` when the command rebuilt
# the Chain of the driver's last pass from its bunch
DENSIFY_S3_ROUNDS_8_SHA256 = "3633a9e261134e373ab6e8b7cbdfb57ec1d5149e17f1cc57b71cb5581c616b94"


def test_densify_formats_its_trace_with_the_chain_of_the_last_pass(monkeypatch, fixture_files):
    # one Chain for the input and one per pass, and no rebuild of the last
    built = count_chain_builds(monkeypatch)
    code, out, _ = cli_run(["densify", fixture_files["s3"], "--prefix", "3", "--rounds", "8"])
    assert code == 0 and len(built) == 9
    assert hashlib.sha256(out.encode()).hexdigest() == DENSIFY_S3_ROUNDS_8_SHA256


def test_an_accepted_bunch_builds_no_check(monkeypatch, tmp_path):
    # the audit's verdict decides; `validate`'s report (95,124 checks here)
    # is expanded only to render a rejection
    path = tmp_path / "f161.json"
    path.write_text(serialize_bunch(fixtures.finite_bunch(161)))
    count = 0
    init = report_module.Check.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(report_module.Check, "__init__", counting_init)
    assert cli_run(["type", str(path)]) == (0, "Odd\n", "")
    assert count == 0
    assert cli_run(["validate", str(path)])[0] == 0 and count == 95_124


@pytest.mark.parametrize("op", ["mul", "res", "cmp"])
def test_eval_missing_rhs_is_a_usage_error_before_reading_the_bunch(tmp_path, op):
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    for path in (broken, tmp_path / "missing.json"):
        assert cli_exit(["eval", str(path), "--op", op, "--lhs", "t:1"]) \
            == (2, f"--rhs is required for op {op}\n")


def test_fill_gap_names_an_unordered_pair_by_its_literals(fixture_files):
    assert cli_exit(["fill-gap", fixture_files["zb"], "--x", "t:2", "--y", "t:1"]) \
        == (1, "error: t:2 is not strictly below t:1\n")
    assert cli_exit(["fill-gap", fixture_files["s3"], "--x", "u:e", "--y", "u:e"]) \
        == (1, "error: u:e is not strictly below u:e\n")


@pytest.mark.parametrize("raw", ["abc", "-1", "", "2.5"])
def test_bad_layerlat_samples_is_a_usage_error(monkeypatch, fixture_files, raw):
    monkeypatch.setenv("LAYERLAT_SAMPLES", raw)
    code, out, err = cli_run(["validate", fixture_files["s3"]])
    assert (code, out) == (2, "")
    assert err.startswith("layerlat: error: LAYERLAT_SAMPLES: ") and "Traceback" not in err


def test_layerlat_samples_is_read_on_every_call(monkeypatch, fixture_files):
    zb = fixture_files["zb"]
    monkeypatch.delenv("LAYERLAT_SAMPLES", raising=False)
    unset = cli_run(["laws", zb])
    assert unset == cli_run(["--samples", "100", "laws", zb, "--law-samples", "10000"])
    explicit = cli_run(["--samples", "7", "validate", zb])
    for raw in ("0", "5", "12"):
        monkeypatch.setenv("LAYERLAT_SAMPLES", raw)
        assert cli_run(["laws", zb]) \
            == cli_run(["--samples", raw, "laws", zb, "--law-samples", raw])
        assert cli_run(["validate", zb]) == cli_run(["--samples", raw, "validate", zb])
        assert cli_run(["validate", zb]) != explicit
        assert cli_run(["--samples", "7", "validate", zb]) == explicit
    monkeypatch.delenv("LAYERLAT_SAMPLES")
    assert cli_run(["laws", zb]) == unset
