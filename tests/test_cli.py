from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from layerlat import cli, fixtures, ogroup as og
from layerlat.bunch import bunch_from_json, serialize_bunch
from layerlat.chain import Chain, parse_element


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


def cli_exit(argv) -> tuple[int, str]:
    """Exit code and stderr of ``layerlat argv`` as the interpreter would
    report them: an uncaught exception prints its traceback and exits 1."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("bunches")
    files = {}
    for name in ("s3", "zb"):
        path = root / f"{name}.json"
        path.write_text(serialize_bunch(fixtures.ALL[name]()))
        files[name] = str(path)
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
