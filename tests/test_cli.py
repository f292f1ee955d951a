from __future__ import annotations

import json

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
